"""Reference-scenario CLI output, byte for byte, against the files in golden/.

The files hold what each subcommand printed for the reference defaults when
they were captured; any change to a byte of that output fails here. To
capture them again after a deliberate output change, run each argv below
with ``python -m swathplan`` and write its stdout to the named file.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from swathplan.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "{out}"  # stands for a fresh --out path; the file must then hold plan.csv

CASES = {
    "plan.csv": ["plan"],
    "plan.json": ["plan", "--format", "json"],
    "plan_out.txt": ["plan", "--out", OUT],
    "width_table.csv": ["width-table"],
    "width_table.json": ["width-table", "--format", "json"],
    "plot_data.json": ["plot-data"],
    "verify.txt": ["verify", str(GOLDEN / "plan.csv")],
}


@pytest.mark.parametrize("name", list(CASES))
def test_reference_output_is_byte_identical(name, tmp_path, capsys):
    out = tmp_path / "plan.csv"
    argv = [str(out) if arg == OUT else arg for arg in CASES[name]]
    assert main(argv) == 0
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert capsys.readouterr() == (expected, "")
    if OUT in CASES[name]:
        assert out.read_bytes() == (GOLDEN / "plan.csv").read_bytes()
