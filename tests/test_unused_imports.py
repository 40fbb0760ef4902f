"""No module of the package but ``__init__``, which re-exports, imports a
name it never uses, so a deletion takes the imports it leaves idle with
it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "toricfib"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression
    reads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nfrom a import b, c\n\nb(os)\n"
    assert unused_imports(source) == ["c", "regex"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_imports_nothing_it_does_not_use(name):
    assert unused_imports((SRC / name).read_text()) == []
