"""The benchmark's tracer (perfbench/layertrace.py) wraps toricfib functions
by name; a rename or deletion here must not leave it pointing at nothing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from toricfib import divisors, fan

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
