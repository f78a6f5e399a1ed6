"""Source hygiene checks that need no linter: stdlib ``ast`` over the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swathplan"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_caught():
    assert _unused_imports("import math\nimport sys\nprint(sys.argv)\n") == ["line 1: math"]
    assert _unused_imports("from os import path as p\nx: p.PathLike\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []
