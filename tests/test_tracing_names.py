"""The benchmark's tracer (perfbench/layertrace.py) wraps toricfib functions
by name, and its runner and recorder call toricfib.serialize by name; a
rename or deletion here must not leave either pointing at nothing."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from toricfib import divisors, fan, serialize

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
_spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


@pytest.mark.parametrize(
    "module,function",
    sorted(set(layertrace.FUNCTION_SPANS + layertrace.COUNTED + layertrace.CACHED)),
)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"toricfib.{module}"), function))


@pytest.mark.parametrize("module,function", layertrace.CACHED)
def test_cached_function_has_cache_info(module, function):
    getattr(importlib.import_module(f"toricfib.{module}"), function).cache_info()


def test_wrapped_methods_exist():
    assert callable(fan.Fan.__post_init__)
    assert callable(divisors.Subdivision.__dict__["at"].__func__)


def _serialize_attributes(path):
    """Every ``serialize.<name>`` the file at ``path`` reads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "serialize"
    }


BENCHMARK_SERIALIZE_NAMES = sorted(
    (path.name, name)
    for path in LAYERTRACE.parent.glob("*.py")
    for name in _serialize_attributes(path)
)


def test_benchmark_uses_serialize():
    used = {name for _, name in BENCHMARK_SERIALIZE_NAMES}
    assert {"certificate_to_dict", "scan_summary_to_dict", "mld_report_to_dict", "fan_from_dict", "dumps"} <= used


@pytest.mark.parametrize("path,name", BENCHMARK_SERIALIZE_NAMES)
def test_benchmark_serialize_name_resolves(path, name):
    assert hasattr(serialize, name), f"perfbench/{path} uses serialize.{name}"
