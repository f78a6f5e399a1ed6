"""README.md against the code: its Library use block prints what its comment
says, and every test it names as the holder of a rule exists.

README's launch table is held by
``test_cli.py::test_readme_launch_table_is_what_each_launch_loads``, beside
the other launch tests.
"""

from __future__ import annotations

import ast
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")


def test_library_use_block_prints_what_its_comment_says():
    block = re.search(r"\n## Library use\n.*?```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines, nm = re.search(r"# (\d+) lines, ([\d.]+) NM$", block, re.M).groups()
    assert out.getvalue() == f"{lines} {nm}\n" == "34 68.0\n"


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_test_the_readme_cites_exists():
    cited = re.findall(r"tests/(\w+\.py)(?:::(\w+))?", README)
    assert any(function for _, function in cited)
    missing = [
        f"tests/{module}::{function}" if function else f"tests/{module}"
        for module, function in cited
        if not (TESTS / module).is_file()
        or (function and function not in _test_functions(TESTS / module))
    ]
    # a test named without its module must be in one of them
    every = set().union(*(_test_functions(path) for path in TESTS.glob("test_*.py")))
    missing += [
        name
        for name in re.findall(r"(?<![\w/:])test_\w+(?![\w.])", README)
        if name not in every
    ]
    assert missing == []
