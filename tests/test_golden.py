"""Reference-scenario CLI output, byte for byte, against the files in golden/.

The files hold what each subcommand printed for the reference defaults when
they were captured; any change to a byte of that output fails here. To
capture them again after a deliberate output change, run each argv below
with ``python -m swathplan`` and write its stdout to the named file.

The width tables in ``width_table_err.*`` hold ERR cells and null widths:
unsorted distances on a 45 deg bed, a grazing row, dry uphill cells and a
1e306 NM column that overflows to infinite meters.

The 2,945-line plan at overlap 0.99 is held by SHA-256 digest instead of a
file: it is the output most sensitive to ulp-level changes in placement. So
is a 360 x 1,000 width table like the benchmark's widest, whose uphill rows
print ERR past 2.47 NM.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from swathplan.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "{out}"  # stands for a fresh --out path; the file must then hold plan.csv
ERR_GRID = ["width-table", "--alpha-deg", "45", "--headings-deg", "0.0,10.0,90.0,180.0,350.0",
            "--distances-nm", "0.0,0.03,0.1,-0.03,0.2,0.01,0.5,1e+306"]

CASES = {
    "plan.csv": ["plan"],
    "plan.json": ["plan", "--format", "json"],
    "plan_out.txt": ["plan", "--out", OUT],
    "width_table.csv": ["width-table"],
    "width_table.json": ["width-table", "--format", "json"],
    "width_table_err.csv": ERR_GRID,
    "width_table_err.json": [*ERR_GRID, "--format", "json"],
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


def test_wide_width_table_digest(capsys):
    argv = ["width-table",
            "--headings-deg", ",".join(repr(i + 0.37) for i in range(360)),
            "--distances-nm", ",".join(repr((j + 0.5) * 0.003) for j in range(1000))]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.count("ERR") == 8300
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (
        "fe2bb24419930f06a3bc5b12a557187f033fad6da1cd0f4502b5183a29044471", ""
    )
