"""Reference-scenario CLI output, byte for byte, against the files in golden/.

The files hold what each subcommand printed for the reference defaults when
they were captured; any change to a byte of that output fails here. To
capture them again after a deliberate output change, run each argv below
with ``python -m swathplan`` and write its stdout to the named file.

The 2,945-line plan at overlap 0.99 is held by SHA-256 digest instead of a
file: it is the output most sensitive to ulp-level changes in placement.
"""

from __future__ import annotations

import hashlib
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


DIGESTS = {
    ("plan", "--eta", "0.99"):
        "1ca8ab3a32afab9077463eeb6366047d2bd4ebb993911f52f15bc6de0b64c7cd",
    ("plan", "--eta", "0.99", "--format", "json"):
        "0a09af8b56aaeb00b0dcbcf00d13a28aa8136d3211f9ed732d2f31c2b650032b",
    ("plot-data", "--eta", "0.99"):
        "d1a2e19f572f32f3db3c5ec9f182663ec7b4a5876a9c6d652c5846403c9efef8",
}


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_dense_overlap_output_digest(argv, capsys):
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (DIGESTS[argv], "")
