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


def _imported(source: str) -> set[tuple[str, str | None]]:
    """(module, name) per imported name: modules relative to the package, None for `import m`."""
    pairs: set[tuple[str, str | None]] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("swathplan").removeprefix(".")
            pairs.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            pairs.update((alias.name.removeprefix("swathplan."), None) for alias in node.names)
    return pairs


# The audit takes types and input checks from the code it audits, never its
# arithmetic: a fault shared by planner and verifier would pass unseen.
AUDITED = {"planner", "geometry"}
VERIFIER_MAY_IMPORT = {
    ("geometry", "SurveyPlan"),
    ("geometry", "SurveyRegion"),
    ("geometry", "TransducerSpec"),
}


def _reaching_audited(source: str) -> set[tuple[str, str | None]]:
    return {(m, n) for m, n in _imported(source) if m in AUDITED or n in AUDITED}


def test_audit_import_rule_is_caught():
    source = (
        "from .planner import SurveyPlan, swath_at\nfrom .geometry import SurveyRegion, "
        "width_table\nfrom . import geometry\nimport math\n"
    )
    flagged = _reaching_audited(source) - VERIFIER_MAY_IMPORT
    # the records are allowed from their own module only
    assert flagged == {
        ("planner", "SurveyPlan"), ("planner", "swath_at"), ("geometry", "width_table"),
        ("", "geometry"),
    }
    assert _reaching_audited("import swathplan.geometry\n") == {("geometry", None)}


def test_verifier_imports_no_arithmetic_it_audits():
    source = (PACKAGE / "verifier.py").read_text(encoding="utf-8")
    assert _reaching_audited(source) <= VERIFIER_MAY_IMPORT


def test_unused_import_is_caught():
    assert _unused_imports("import math\nimport sys\nprint(sys.argv)\n") == ["line 1: math"]
    assert _unused_imports("from os import path as p\nx: p.PathLike\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def _imports_of(source: str, banned: set[str]) -> list[int]:
    """Line of every import, at any depth, of a banned module or one of its
    submodules, or of a name given as "module.name" from its module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == b or name.startswith(b + ".") for name in names for b in banned):
            lines.append(node.lineno)
    return lines


def test_numpy_import_is_caught():
    source = "import math\n\ndef f():\n    import numpy.linalg as la\n    from numpy import dot\n"
    assert _imports_of(source, {"numpy"}) == [4, 5]
    assert _imports_of("from . import numpyish\nimport numpyish\n", {"numpy"}) == []


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy(module):
    assert _imports_of(module.read_text(encoding="utf-8"), {"numpy"}) == []


# Each costs every launch milliseconds to import or to apply: the records
# are named tuples, and load_config copies section dicts, not the document.
SLOW_TO_START = {"dataclasses", "copy", "functools.cached_property"}


def test_slow_import_is_caught():
    source = (
        "from dataclasses import dataclass\nimport copy as c\nimport copyreg\n"
        "from functools import cached_property, partial\nfrom functools import partial\n"
    )
    assert _imports_of(source, SLOW_TO_START) == [1, 2, 4]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_copy(module):
    assert _imports_of(module.read_text(encoding="utf-8"), SLOW_TO_START) == []


def _unreferenced(sources: list[str]) -> list[str]:
    """Top-level functions and classes no source names (a name, attribute or string).

    A module's ``__getattr__`` is called by the interpreter, never by name.
    """
    defined, referenced = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name != "__getattr__"
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    return sorted(set(defined) - referenced)


def test_unreferenced_definition_is_caught():
    sources = ["def used():\n    pass\n\nclass Spare:\n    pass\n", "__all__ = ['used']\n"]
    assert _unreferenced(sources) == ["Spare"]
    sources = ["def f():\n    return g()\n", "import m\nm.f\ndef g():\n    pass\n"]
    assert _unreferenced(sources) == []
    assert _unreferenced(["def __getattr__(name):\n    raise AttributeError(name)\n"]) == []


def test_every_definition_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced(sources) == []


def _nodes(module: Path) -> int:
    return sum(1 for _ in ast.walk(ast.parse(module.read_text(encoding="utf-8"))))


# With no cached bytecode every launch compiles cli.py, and the memory its
# compile takes stays with the process, so the largest module every launch
# compiles sets every launch's peak RSS. When cli.py held the four command
# handlers (1,924 nodes), its compile raised a fresh process's high-water by
# 964-968 KiB, against 612 KiB for geometry.py (1,421 nodes), the largest
# other module every launch compiles; without them (1,308 nodes) by 612-624
# KiB (VmHWM around compile(), Python 3.11). The handlers are in commands.py.
def test_command_line_reader_compiles_no_larger_than_geometry():
    assert _nodes(PACKAGE / "cli.py") <= _nodes(PACKAGE / "geometry.py")
