"""Command line behavior: outputs, exit codes, overrides, determinism."""

from __future__ import annotations

import errno
import gc
import io
import json
import math
import os
import pstats
import random
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from swathplan import chunks, planner
from swathplan.cli import main, parse_args
from swathplan.config import load_config, sig_spec
from swathplan.errors import BeamGrazeError, PlanningError
from swathplan.geometry import (
    METERS_PER_NAUTICAL_MILE,
    Distances,
    PlanarSeabed,
    TransducerSpec,
    effective_slope,
    swath_cross_section,
    width_table,
)
from swathplan.jsonwriter import width_rows_json
from swathplan.planfile import write_plan_csv
from swathplan.stripes import WORKER_CELLS, printable_widths, width_chunks, width_rows_csv

from oracles import verify_read_whole

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "swathplan", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------- width-table


def test_width_table_default_csv(capsys):
    assert main(["width-table"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == "heading_deg,0,0.3,0.6,0.9,1.2,1.5,1.8,2.1"
    assert lines[1].startswith("0,415.692,466.091")
    # contour headings keep a constant depth, hence a constant width
    row90 = lines[3].split(",")
    assert row90[0] == "90"
    assert len(set(row90[1:])) == 1


def test_width_table_flat_override(capsys):
    assert main(["width-table", "--alpha-deg", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for row in lines[1:]:
        cells = row.split(",")[1:]
        assert set(cells) == {"415.692"}


def test_width_table_err_cells(capsys):
    code = main(
        ["width-table", "--alpha-deg", "45", "--headings-deg", "0,90", "--distances-nm", "0"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "0,415.692"
    assert lines[2] == "90,ERR"


def test_width_table_json(capsys):
    code = main(
        [
            "width-table",
            "--format",
            "json",
            "--alpha-deg",
            "45",
            "--headings-deg",
            "0,90",
            "--distances-nm",
            "0,0.5",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["heading_deg"] for row in doc] == [0.0, 90.0]
    assert doc[0]["widths_m"]["0"] == pytest.approx(415.692, abs=1e-3)
    assert doc[1]["widths_m"]["0"] is None  # grazing cell
    assert doc[1]["widths_m"]["0.5"] is None


def _one_document(seabed, xdcr, headings, distances_nm):
    """The JSON width table as one json.dumps(doc, indent=2) of every row."""
    distances_m = [d * METERS_PER_NAUTICAL_MILE for d in distances_nm]
    grid = width_table(seabed, xdcr, headings, distances_m)
    doc = [
        {
            "heading_deg": heading,
            "widths_m": {
                f"{d:.6g}": None if w is None else float(f"{w:.6g}")
                for d, w in zip(distances_nm, row)
            },
        }
        for heading, row in zip(headings, grid)
    ]
    return json.dumps(doc, indent=2) + "\n"


# the reference 8 x 8 grid; a 45 deg bed whose 90 row grazes and whose
# 1e306 NM column overflows; and a single heading
JSON_GRIDS = {
    "reference": (
        [], 1.5, [45.0 * i for i in range(8)], [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1]
    ),
    "err-overflow": (["--alpha-deg", "45"], 45.0, [0.0, 10.0, 90.0, 180.0, 350.0],
                     [0.0, 0.03, 0.1, -0.03, 0.2, 0.01, 0.5, 1e306]),
    "one-heading": ([], 1.5, [30.0], [0.0, 0.5]),
}


@pytest.mark.parametrize("grid", list(JSON_GRIDS))
def test_width_table_json_is_one_document(grid, tmp_path, capsys):
    flags, alpha, headings, distances = JSON_GRIDS[grid]
    argv = ["width-table", "--format", "json", *flags,
            "--headings-deg", ",".join(map(repr, headings)),
            "--distances-nm", ",".join(map(repr, distances))]
    expected = _one_document(PlanarSeabed(120.0, alpha), TransducerSpec(120.0), headings, distances)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert main([*argv, "--out", str(tmp_path / "grid.json")]) == 0
    assert (tmp_path / "grid.json").read_text(encoding="utf-8") == expected


def test_width_table_json_refuses_distances_that_print_alike(tmp_path, capsys):
    # the printed distances key each row's widths: alike labels would collapse
    argv = ["width-table", "--headings-deg", "0", "--distances-nm", "0,0,1.0000001,1.0000002"]
    out = tmp_path / "grid.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: distances_nm 0.0 and 0.0 both print as '0', and JSON width keys must differ\n"
    )
    assert not out.exists()
    # CSV has no keys and prints every cell
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "heading_deg,0,0,1,1"
    # from a file, at the precision the file sets
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"distances_nm": [0.5, 1.001, 1.002], "precision": 2, "format": "json"}),
        encoding="utf-8",
    )
    assert main(["width-table", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: distances_nm 1.001 and 1.002 both print as '1', and JSON width keys must differ\n"
    )


def _no_constants(name):
    raise ValueError(f"not valid JSON: {name}")


def _width_table_text(config: dict, fmt: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with redirect_stdout(io.StringIO()) as out:
            assert main(["width-table", "--config", str(path), "--format", fmt]) == 0
    return out.getvalue()


def test_width_table_overflow_prints_err(capsys):
    # 1e306 NM overflows to infinite meters
    argv = ["width-table", "--headings-deg", "0,180", "--distances-nm", "1e306,-1e306"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["heading_deg,1e+306,-1e+306", "0,ERR,ERR", "180,ERR,ERR"]
    # finite inputs whose width overflows; JSON has no Infinity
    argv = ["width-table", "--alpha-deg", "89", "--theta-deg", "179.9", "--headings-deg", "0",
            "--distances-nm", "1e300", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert doc == [{"heading_deg": 0.0, "widths_m": {"1e+300": None}}]
    # a width whose text rounds past the largest double: 1.7e308 prints "2e+308"
    config = {"seabed": {"reference_depth_m": 5e307}, "headings_deg": [90],
              "distances_nm": [0], "precision": 1}
    assert _width_table_text(config, "csv") == "heading_deg,0\n9e+01,ERR\n"
    doc = json.loads(_width_table_text(config, "json"), parse_constant=_no_constants)
    assert doc == [{"heading_deg": 90, "widths_m": {"0": None}}]
    # an infinite depth under a zero-width fan: inf * 0 is NaN, which is no width
    argv = ["width-table", "--theta-deg", "5e-324", "--alpha-deg", "1", "--headings-deg", "0",
            "--distances-nm", "0,9.70676638694555e+304"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,ERR"
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert doc == [{"heading_deg": 0.0, "widths_m": {"0": 0.0, "9.70677e+304": None}}]


@st.composite
def width_configs(draw):
    """Width-table configs, some of them deep enough that the widest row sits
    just under the largest double, where a width can round up past it."""
    alpha, theta = draw(st.floats(0.0, 89.0)), draw(st.floats(1.0, 179.0))
    try:
        # heading 90 runs along the contour, where the cross-track slope is alpha
        unit = swath_cross_section(1.0, alpha, TransducerSpec(theta)).total_width
        top = min(sys.float_info.max / unit, 1e308)
    except PlanningError:  # the fan grazes the bed: every cell is ERR
        top = 1e308
    depth = draw(st.one_of(st.floats(1e-3, 1e308), st.floats(0.8 * top, top)))
    headings = st.one_of(st.just(90.0), st.floats(0.0, 360.0, exclude_max=True))
    distances = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1e306, -1e306]))
    return {
        "seabed": {"reference_depth_m": depth, "slope_alpha_deg": alpha},
        "transducer": {"opening_angle_deg": theta},
        "headings_deg": draw(st.lists(headings, min_size=1, max_size=4)),
        "distances_nm": draw(st.lists(distances, min_size=1, max_size=6)),
        "precision": draw(st.integers(1, 17)),
    }


@settings(deadline=None, max_examples=150)
@given(width_configs())
def test_width_table_formats_mark_the_same_cells(config):
    sig, distances = config["precision"], config["distances_nm"]
    # JSON keys the widths by the printed distance, so none may print alike
    assume(len({f"{d:.{sig}g}" for d in distances}) == len(distances))
    csv_rows = [line.split(",")[1:] for line in _width_table_text(config, "csv").splitlines()[1:]]
    doc = json.loads(_width_table_text(config, "json"), parse_constant=_no_constants)
    json_rows = [list(row["widths_m"].values()) for row in doc]
    assert len(csv_rows) == len(json_rows) == len(config["headings_deg"])
    for csv_cells, json_cells in zip(csv_rows, json_rows):
        assert [c == "ERR" for c in csv_cells] == [w is None for w in json_cells]
        numbers = [w for w in json_cells if w is not None]
        assert [float(c) for c in csv_cells if c != "ERR"] == numbers


# ERR cells in the middle (0.1, 0.2) and at the end (0.5) of the uphill row,
# an all-ERR row at 90 (the 45 deg bed grazes the 120 deg fan) and
# all-numeric rows at 0, 10 and 350
ROW_TEST_HEADINGS = [0.0, 10.0, 90.0, 180.0, 350.0]
ROW_TEST_DISTANCES_NM = [0.0, 0.03, 0.1, -0.03, 0.2, 0.01, 0.5]


@pytest.mark.parametrize("sig", [1, 6, 17])
def test_width_table_rows_match_per_cell_formatting(sig, tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {
                "seabed": {"reference_depth_m": 120.0, "slope_alpha_deg": 45.0},
                "transducer": {"opening_angle_deg": 120.0},
                "headings_deg": ROW_TEST_HEADINGS,
                "distances_nm": ROW_TEST_DISTANCES_NM,
                "precision": sig,
            }
        ),
        encoding="utf-8",
    )
    assert main(["width-table", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    # --out writes the very bytes stdout gets
    table = tmp_path / "grid.csv"
    assert main(["width-table", "--config", str(cfg), "--out", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert table.read_bytes() == out.encode("utf-8")

    grid = width_table(
        PlanarSeabed(120.0, 45.0),
        TransducerSpec(120.0),
        ROW_TEST_HEADINGS,
        [d * METERS_PER_NAUTICAL_MILE for d in ROW_TEST_DISTANCES_NM],
    )
    assert [row.count(None) for row in grid] == [0, 0, 7, 3, 0]
    expected = ["heading_deg," + ",".join(f"{d:.{sig}g}" for d in ROW_TEST_DISTANCES_NM)]
    for heading, row in zip(ROW_TEST_HEADINGS, grid):
        cells = ["ERR" if w is None else f"{w:.{sig}g}" for w in row]
        expected.append(f"{heading:.{sig}g}," + ",".join(cells))
    assert lines == expected


class _ChunkRecorder(io.StringIO):
    """A stdout that keeps every chunk written to it."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return super().write(text)


def test_width_table_writes_one_row_at_a_time(monkeypatch):
    # uphill rows past 2.47 NM put ERR cells in the grid too
    headings = [float(h) for h in range(0, 360, 2)]
    distances = [0.05 * i for i in range(60)]
    stdout = _ChunkRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["width-table", "--headings-deg", ",".join(map(str, headings)),
            "--distances-nm", ",".join(map(str, distances))]
    assert main(argv) == 0

    distances_m = [d * METERS_PER_NAUTICAL_MILE for d in distances]
    grid = width_table(PlanarSeabed(120.0, 1.5), TransducerSpec(120.0), headings, distances_m)
    assert 0 < sum(row.count(None) for row in grid) < len(headings) * len(distances)
    expected = ["heading_deg," + ",".join(f"{d:.6g}" for d in distances) + "\n"]
    for heading, row in zip(headings, grid):
        cells = ["ERR" if w is None else f"{w:.6g}" for w in row]
        expected.append(f"{heading:.6g}," + ",".join(cells) + "\n")
    assert "".join(stdout.chunks) == "".join(expected)
    assert max(map(len, stdout.chunks)) <= max(map(len, expected))


def _big_grid(tmp_path):
    """A config for a 360 x 1,000 width grid: about 2.8 MB of CSV."""
    cfg = tmp_path / "big_grid.json"
    cfg.write_text(
        json.dumps(
            {"headings_deg": list(range(360)), "distances_nm": [0.003 * i for i in range(1000)]}
        ),
        encoding="utf-8",
    )
    return str(cfg)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_width_table_closed_pipe_exits_2(unbuffered, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "swathplan", "width-table", "--config", _big_grid(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"heading_deg,0,0.003,")
    proc.stdout.close()  # the reader goes away after the first line
    _, stderr = proc.communicate(timeout=60)
    stderr = stderr.decode()
    assert proc.returncode == 2, stderr
    assert stderr.count("error:") == 1, stderr
    assert "Broken pipe" in stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_width_table_memory_stays_flat(tmp_path, cli_peak_rss_kib):
    floor_code, floor_kib = cli_peak_rss_kib("width-table", "--help")
    code, kib = cli_peak_rss_kib("width-table", "--config", _big_grid(tmp_path))
    assert (floor_code, code) == (0, 0)
    # the whole grid and its text held at once come to about 22 MiB
    assert kib - floor_kib <= 4 * 1024, (kib, floor_kib)


def test_width_table_json_memory_stays_flat(tmp_path, cli_peak_rss_kib):
    floor_code, floor_kib = cli_peak_rss_kib("width-table", "--help")
    argv = ["width-table", "--config", _big_grid(tmp_path), "--format", "json"]
    code, kib = cli_peak_rss_kib(*argv)
    assert (floor_code, code) == (0, 0)
    # the whole grid built as one document comes to over 80 MiB
    assert kib - floor_kib <= 4 * 1024, (kib, floor_kib)


# ---------------------------------------------------- width-table rows and worker


def _grid_config(headings: list[float], n_distances: int, first: int, sig: int) -> dict:
    """A width-table config on a 45 deg bed, where heading 90 grazes (an
    all-ERR row) and up- and downhill rows surface past 0.065 NM (ERR cells).
    Its distances step by 1e-4 NM from ``first`` of those steps, so at 4 or
    more digits no two print alike."""
    return {
        "seabed": {"reference_depth_m": 120.0, "slope_alpha_deg": 45.0},
        "transducer": {"opening_angle_deg": 120.0},
        "headings_deg": headings,
        "distances_nm": [round((first + k) * 1e-4, 4) for k in range(n_distances)],
        "precision": sig,
    }


@st.composite
def worker_grids(draw):
    """Width-table configs with an odd or an even number of headings. Grids
    of 900 distances or more fall on either side of ``WORKER_CELLS``; smaller
    ones hold no more cells than that."""
    n_distances = draw(
        st.one_of(st.integers(1, 40), st.integers(900, 2700), st.just(WORKER_CELLS + 1))
    )
    most_alone = WORKER_CELLS // n_distances  # the most headings with no worker
    heading = st.one_of(
        st.sampled_from([0.0, 90.0, 180.0]), st.floats(0.0, 360.0, exclude_max=True)
    )
    headings = draw(st.lists(heading, min_size=1, max_size=min(2 * most_alone + 3, 40)))
    first, sig = draw(st.integers(-3000, 500)), draw(st.integers(4, 17))
    return _grid_config(headings, n_distances, first, sig)


def _width_writes(config: dict, fmt: str) -> list[str]:
    """The writes of a width table made here, in one process: the head, each
    row of ``width_table`` over every heading, then the tail."""
    writer = width_rows_json if fmt == "json" else width_rows_csv
    head, row_text, tail = writer(config["distances_nm"], config["precision"])
    distances = Distances(d * METERS_PER_NAUTICAL_MILE for d in config["distances_nm"])
    grid = width_table(
        PlanarSeabed(120.0, 45.0), TransducerSpec(120.0), config["headings_deg"], distances
    )
    spec = sig_spec(config["precision"])
    rows = [
        row_text(i, h, *printable_widths(row, spec, distances.ends))
        for i, (h, row) in enumerate(zip(config["headings_deg"], grid))
    ]
    return [head, *rows, tail]


@settings(deadline=None, max_examples=20)
@given(worker_grids())
@example(_grid_config([0.0, 90.0, 180.0], 8, -500, 6))  # no worker
@example(_grid_config([float(h) for h in range(0, 80, 10)], 1000, -800, 6))  # 8,000: no worker
@example(_grid_config([float(h) for h in range(0, 190, 10)], 1000, -800, 6))  # a worker for 9 rows
@example(_grid_config([float(h) for h in range(0, 160, 10)], 1000, -800, 17))  # ... for 8 rows
@example(_grid_config([0.0, 90.0, 180.0], WORKER_CELLS + 1, -3000, 4))  # a worker for row 1 of 3
def test_width_table_stripes_print_what_one_process_prints(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        for fmt in ("csv", "json"):
            expected = _width_writes(config, fmt)
            argv = ["width-table", "--config", str(path), "--format", fmt]
            stdout = _ChunkRecorder()
            with redirect_stdout(stdout), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 0
            assert stdout.chunks == expected  # one row per write, in heading order
            assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
            out = Path(tmp) / f"grid.{fmt}"
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == "".join(expected)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@st.composite
def width_grids(draw):
    """(seabed, fan, headings, distances in NM, precision) for the row property.

    The distances come unsorted from a small pool, so they repeat, with
    negatives and zero, some whose widths near the largest double, and some
    past 9.7e304 NM, which are +-inf in meters (NaN depths on a flat bed).
    Fans reach to grazing at the contour heading and down to 1e-300 deg and
    below, where the widths underflow to 0.
    """
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 89.0)))
    grazing = 180.0 - 2.0 * alpha  # the contour row's fan grazes at this opening
    theta = draw(
        st.one_of(
            st.floats(1e-300, 179.0),
            st.floats(0.0, 1e-6).map(lambda gap: grazing - gap),
            st.sampled_from([1e-300, 1e-310, 5e-324]),
        ).filter(lambda t: 0.0 < t < 180.0)
    )
    depth = draw(st.one_of(st.floats(1e-3, 1e4), st.floats(1e300, 1e308)))
    heading = st.one_of(
        st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0.0, 360.0, exclude_max=True)
    )
    far = st.floats(9.7e304, 1e308)
    pool = draw(
        st.lists(
            st.one_of(
                st.floats(-5.0, 5.0), st.just(0.0), st.floats(-9.7e304, 9.7e304),
                far, far.map(lambda d: -d),
            ),
            min_size=1,
            max_size=5,
        )
    )
    distances = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    headings = draw(st.lists(heading, min_size=1, max_size=4))
    seabed, fan = PlanarSeabed(depth, alpha), TransducerSpec(theta)
    return seabed, fan, headings, distances, draw(st.integers(1, 17))


def _per_cell_row(seabed, fan, beta, distances_m):
    """One width-table row, a cell at a time: depth * unit width where the bed
    is under water, and None where it is not, the fan grazes or the width is
    not finite."""
    try:
        gamma = effective_slope(seabed.slope_alpha, beta)
        unit = swath_cross_section(1.0, gamma, fan).total_width
    except BeamGrazeError:
        return [None] * len(distances_m)
    cosb = math.cos(math.radians(beta))
    ta = math.tan(math.radians(seabed.slope_alpha))
    row = []
    for dist in distances_m:
        depth = seabed.reference_depth + dist * cosb * ta
        width = depth * unit if depth > 0.0 else None
        row.append(width if width is None or math.isfinite(width) else None)
    return row


def _bits(rows):
    return [[w if w is None else w.hex() for w in row] for row in rows]


@settings(deadline=None, max_examples=300)
@given(width_grids())
# the uphill row's first and last columns hold widths, but its 0.1 NM cell
# is dry; the downhill row's greatest width sits in that middle column
@example((PlanarSeabed(120.0, 45.0), TransducerSpec(120.0), [0.0, 180.0], [0.0, 0.1, -0.03], 6))
# the greatest width prints "2e+308": downhill at the greatest distance,
# uphill at the least
@example((PlanarSeabed(120.0, 45.0), TransducerSpec(120.0), [0.0], [0.0, 2.6e304], 1))
@example((PlanarSeabed(120.0, 45.0), TransducerSpec(120.0), [180.0], [-2.6e304, 0.0], 1))
# a zero-width fan times an infinite depth is NaN, which is no width either
@example((PlanarSeabed(1.0, 1.0), TransducerSpec(5e-324), [0.0], [0.0, 9.70676638694555e304], 6))
def test_width_rows_match_the_per_cell_definition(grid):
    seabed, fan, headings, distances_nm, sig = grid
    distances = Distances(d * METERS_PER_NAUTICAL_MILE for d in distances_nm)
    rows = width_table(seabed, fan, headings, distances)
    expected_rows = [_per_cell_row(seabed, fan, beta, distances) for beta in headings]
    # the same floats, bit for bit: == takes -0.0 for 0.0
    assert _bits(rows) == _bits(expected_rows)
    assert _bits(width_table(seabed, fan, headings, list(distances))) == _bits(rows)
    # a cell prints when it holds a width whose text reads back finite
    spec = f"%.{sig}g"
    texts = [
        [spec % w if w is not None and math.isfinite(float(spec % w)) else None for w in row]
        for row in expected_rows
    ]
    printable = [printable_widths(row, sig_spec(sig), distances.ends) for row in rows]
    _, csv_row, _ = width_rows_csv(distances_nm, sig)
    for i, (beta, row, cells) in enumerate(zip(headings, printable, texts)):
        line = spec % beta + "," + ",".join("ERR" if c is None else c for c in cells) + "\n"
        assert csv_row(i, beta, *row) == line
    labels = [spec % d for d in distances_nm]
    if len(set(labels)) == len(labels):  # JSON keys the widths by the printed distance
        head, json_row, tail = width_rows_json(distances_nm, sig)
        json_rows = [
            json_row(i, beta, *row)
            for i, (beta, row) in enumerate(zip(headings, printable))
        ]
        doc = [
            {
                "heading_deg": beta,
                "widths_m": {k: None if c is None else float(c) for k, c in zip(labels, cells)},
            }
            for beta, cells in zip(headings, texts)
        ]
        assert head + "".join(json_rows) + tail == json.dumps(doc, indent=2) + "\n"


# 20 headings of 1,000 cells: the worker makes the 10 odd rows
WORKER_GRID = {"headings_deg": [float(h) for h in range(20)],
               "distances_nm": [0.003 * i for i in range(1000)]}
WORKER_GRID_FLAGS = ["--headings-deg", ",".join(map(repr, WORKER_GRID["headings_deg"])),
                     "--distances-nm", ",".join(map(repr, WORKER_GRID["distances_nm"]))]


def test_width_table_worker_is_reaped_when_the_rows_stop():
    cfg = load_config(None, WORKER_GRID)
    chunks = width_chunks(cfg, width_rows_csv(cfg.distances_nm, cfg.precision))
    assert next(chunks).startswith("heading_deg,")
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # the worker runs
    chunks.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "n_headings, n_distances, forks",
    [(8, 8, 0), (8, 1000, 0), (1, 9000, 0), (2, 4000, 0), (9, 1000, 1), (2, 4001, 1)],
)
def test_width_table_forks_a_worker_only_past_worker_cells(
    n_headings, n_distances, forks, monkeypatch
):
    # the default 8 x 8 grid, which perfbench's reference and dense_overlap
    # run, never forks; nor does a grid of one heading
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    grid = {"headings_deg": [float(h) for h in range(n_headings)],
            "distances_nm": [0.003 * i for i in range(n_distances)]}
    cfg = load_config(None, grid)
    chunks = list(width_chunks(cfg, width_rows_csv(cfg.distances_nm, cfg.precision)))
    assert len(chunks) == 1 + n_headings + 1
    assert len(calls) == forks
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_width_table_without_fork_prints_the_same(monkeypatch, capsys):
    assert main(["width-table", *WORKER_GRID_FLAGS]) == 0
    forked = capsys.readouterr().out
    monkeypatch.delattr(os, "fork")  # as on a platform that cannot fork
    assert main(["width-table", *WORKER_GRID_FLAGS]) == 0
    assert capsys.readouterr().out == forked


def _open_fds() -> set[str] | None:
    """This process's open descriptors, where /proc shows them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_width_table_worker_that_cannot_start_prints_the_same(call, monkeypatch, capsys):
    assert main(["width-table", *WORKER_GRID_FLAGS]) == 0
    forked = capsys.readouterr().out

    def unavailable(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    fds = _open_fds()
    monkeypatch.setattr(os, call, unavailable)
    assert main(["width-table", *WORKER_GRID_FLAGS]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (forked, "")
    assert _open_fds() == fds  # no pipe end is left open


class _PipeClosedAfterOneWrite(_ChunkRecorder):
    """A stdout whose reader goes away after the first write."""

    def write(self, text):
        if self.chunks:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_width_table_closed_pipe_reaps_the_worker(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _PipeClosedAfterOneWrite())
    assert main(["width-table", *WORKER_GRID_FLAGS]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_width_table_worker_failure_exits_2(monkeypatch, capsys):
    def failing(seabed, xdcr, headings, distances):
        if 1.0 in headings:  # the worker's first row
            raise ValueError("no width here")
        return width_table(seabed, xdcr, headings, distances)

    monkeypatch.setattr("swathplan.geometry.width_table", failing)  # the rows call it there
    assert main(["width-table", *WORKER_GRID_FLAGS]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the width-table worker ended before heading 1.0\n"
    assert len(captured.out.splitlines()) == 1 + 1  # the header and the first row
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_width_table_rejects_bad_list():
    proc = run_cli("width-table", "--headings-deg", "0,abc")
    assert proc.returncode == 2
    assert "comma-separated numbers" in proc.stderr


# ----------------------------------------------------------------------- plan


def test_plan_csv_to_file(tmp_path, capsys):
    out_path = tmp_path / "plan.csv"
    assert main(["plan", "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "34 lines, 68 NM total, D1 = 96.9927 m" in stdout

    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_m,overlap_prev,width_m"
    assert len(lines) == 1 + 34 + 1  # header, rows, summary comment
    assert lines[1] == "358.522,,686.168"
    assert lines[2] == "951.797,0.10000,632.222"
    assert lines[-1] == "# summary: lines=34 total_track_nm=68 line_length_m=3704 d1_m=96.9927"


def test_plan_json(capsys):
    assert main(["plan", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["placements"]) == 34
    first = doc["placements"][0]
    assert first["overlap_prev"] is None
    assert first["x_m"] == pytest.approx(358.522, abs=1e-3)
    assert doc["placements"][5]["overlap_prev"] == pytest.approx(0.1, abs=1e-5)
    assert doc["summary"]["line_count"] == 34


def test_plan_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"region": {"slope_alpha_deg": 0.0}}), encoding="utf-8")
    assert main(["plan", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("190.526,,")


def test_plan_infeasible_region_exits_1(capsys):
    # bed surfaces 5.6 km into a 7.4 km region: no finite plan
    assert main(["plan", "--center-depth-m", "50"]) == 1
    err = capsys.readouterr().err
    assert "region exhausted" in err


def test_plan_infeasible_start_exits_1(capsys):
    # a 150 deg fan cannot pin its deep edge inside a 0.2 NM region
    assert main(["plan", "--region-ew-nm", "0.2", "--theta-deg", "150"]) == 1
    err = capsys.readouterr().err
    assert "no feasible start" in err


def test_plan_stalled_placement_exits_1():
    # the east edge of this bed lies about 1e-9 m deep; placement stalls there
    proc = run_cli(
        "plan", "--alpha-deg", "20", "--eta", "0.9",
        "--region-ew-nm", "5.399568034557236", "--center-depth-m", "1819.8511713320117",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: region exhausted: placement stalled at x = 10000.000 m"]
    assert "partial plan (83 lines):" in proc.stderr
    assert "Traceback" not in proc.stderr


# a swath past the largest double: its width overflows on the first line, or
# the second line's step carries x to inf over a flat bed (depth nan there)
OVERFLOWING_PLANS = {
    "first_width": (
        "1e306", "error: plan overflows: line 1: line x and width must be finite, "
        "got 1.145886501293096e+308, inf", None,
    ),
    "second_x": (
        "7e305", "error: plan overflows: line 2: line x and width must be finite, "
        "got inf, nan", "partial plan (1 lines):",
    ),
}


@pytest.mark.parametrize("command", ["plan", "plot-data"])
@pytest.mark.parametrize("case", list(OVERFLOWING_PLANS))
def test_plan_whose_swath_overflows_exits_1(command, case):
    depth, error, partial = OVERFLOWING_PLANS[case]
    proc = run_cli(
        command, "--region-ew-nm", "9e304", "--center-depth-m", depth,
        "--theta-deg", "179", "--alpha-deg", "0", timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [error]
    assert (partial in proc.stderr) if partial else "partial plan" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_refused_plan_prints_its_partial_lines_as_the_plan_file_would():
    # near the largest double, a fixed-point x would print as 300 digits
    proc = run_cli(
        "plan", "--region-ew-nm", "9e304", "--center-depth-m", "7e305",
        "--theta-deg", "179", "--alpha-deg", "0", timeout=60,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    partial = lines[lines.index("partial plan (1 lines):") + 1 :]
    assert partial == ["  x=8.02121e+307 m  width=1.60424e+308 m"]
    assert all(len(line) < 80 for line in partial)


# --------------------------------------------------------------------- verify


def test_verify_round_trip_csv(tmp_path, capsys):
    plan_path = tmp_path / "plan.csv"
    assert main(["plan", "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_verify_round_trip_json(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["plan", "--format", "json", "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(plan_path)]) == 0


def test_verify_detects_gap(tmp_path, capsys):
    plan_path = tmp_path / "plan.csv"
    main(["plan", "--out", str(plan_path)])
    rows = plan_path.read_text(encoding="utf-8").splitlines()
    del rows[10]  # drop one mid-plan line
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()

    assert main(["verify", str(gappy)]) == 1
    out = capsys.readouterr().out
    assert "uncovered interval" in out
    assert "FAIL" in out


def test_verify_respects_scenario_overrides(tmp_path, capsys):
    # a plan for one scenario must not verify against another
    plan_path = tmp_path / "plan.csv"
    main(["plan", "--out", str(plan_path)])
    capsys.readouterr()
    assert main(["verify", str(plan_path), "--center-depth-m", "200"]) == 1


@pytest.mark.parametrize("eta", ["0.05", "0.3", "0.6", "0.9", "0.95"])
def test_verify_band_follows_the_planned_eta(eta, tmp_path, capsys):
    # with no eta_min/eta_max given, the band verify checks derives from --eta
    plan_path = tmp_path / "plan.csv"
    assert main(["plan", "--eta", eta, "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(plan_path), "--eta", eta]) == 0
    assert capsys.readouterr().out.startswith("PASS")


# Plans whose overlap column prints as 0 (an achieved overlap under 5e-6) or
# as 1 (from 0.999995 up, here on a flat bed 1 m deep, about 17,500 lines)
ROUNDED_OVERLAP_PLANS = {
    "eta-1e-9": (["--eta", "1e-9"], "0"),
    "eta-4.9e-6": (["--eta", "4.9e-6"], "0"),
    "eta-0.999996": (
        ["--alpha-deg", "0", "--center-depth-m", "1", "--region-ew-nm", "0.002",
         "--eta", "0.999996"],
        "1",
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(ROUNDED_OVERLAP_PLANS))
def test_verify_reads_a_plan_whose_overlap_prints_as_0_or_1(case, fmt, tmp_path, capsys):
    flags, rounded = ROUNDED_OVERLAP_PLANS[case]
    plan_path = tmp_path / f"plan.{fmt}"
    assert main(["plan", *flags, "--format", fmt, "--out", str(plan_path)]) == 0
    text = plan_path.read_text(encoding="utf-8")
    assert (f",{rounded}.00000," if fmt == "csv" else f'"overlap_prev": {rounded}.0,') in text
    capsys.readouterr()
    # a verdict, never a parse error: the η 1e-9 plan leaves real gaps to report
    assert main(["verify", str(plan_path), *flags]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith(("PASS", "FAIL"))


def test_verify_passes_flat_bed_plan(tmp_path, capsys):
    # equal widths are the right shape on a flat bed, not a finding
    plan_path = tmp_path / "flat.csv"
    assert main(["plan", "--alpha-deg", "0", "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(plan_path), "--alpha-deg", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_out_writes_the_report(tmp_path, capsys):
    plan_path = tmp_path / "plan.csv"
    assert main(["plan", "--out", str(plan_path)]) == 0
    rows = plan_path.read_text(encoding="utf-8").splitlines()
    del rows[10]
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = tmp_path / "report.txt"
    for path, code in ((plan_path, 0), (gappy, 1)):
        capsys.readouterr()
        assert main(["verify", str(path)]) == code
        expected = capsys.readouterr().out
        assert main(["verify", str(path), "--out", str(report)]) == code
        assert capsys.readouterr().out == ""
        assert report.read_text(encoding="utf-8") == expected
    assert expected.startswith("finding: uncovered interval")


def test_verify_writes_findings_a_batch_at_a_time(tmp_path, monkeypatch):
    # 2,500 lines on one spot: a finding for each of the 2,499 pairs, and gaps
    plan = tmp_path / "stacked.csv"
    plan.write_text("x_m,overlap_prev,width_m\n100,,50\n" + "100,0.5,50\n" * 2499,
                    encoding="utf-8")
    stdout = _ChunkRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify", str(plan)]) == 1
    lines = stdout.getvalue().splitlines()
    assert lines[-1] == f"FAIL: {len(lines) - 1} finding(s)"
    assert all(line.startswith("finding: ") for line in lines[:-1])
    findings, size = len(lines) - 1, chunks.ROWS_PER_CHUNK
    assert findings > 2 * size
    batches = [size] * (findings // size) + [findings % size] * (findings % size > 0)
    assert [chunk.count("\n") for chunk in stdout.chunks] == [*batches, 1]


@pytest.mark.parametrize(
    "width_nm, depth_m", [("0.005", "2"), ("0.001", "0.5"), ("0.001", "0.3")]
)
def test_verify_narrow_region_passes(width_nm, depth_m, tmp_path):
    # 9.26 m and 1.852 m wide: the default 0.1 m raster would have under 100
    # cells; at 0.3 m deep the footprints are about 1 m wide, so a hundredth
    # of the width (18.5 mm cells) still misreads a ratio by up to 0.02
    plan_path = str(tmp_path / "plan.csv")
    scenario = ("--region-ew-nm", width_nm, "--center-depth-m", depth_m)
    assert run_cli("plan", *scenario, "--out", plan_path, timeout=60).returncode == 0
    proc = run_cli("verify", plan_path, *scenario, timeout=60)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("PASS")


@pytest.mark.parametrize(
    "flags",
    [
        ("--alpha-deg", "0", "--center-depth-m", "0.001"),
        ("--theta-deg", "0.001"),
        ("--eta", "0.999999"),
    ],
)
def test_plan_over_the_line_limit_exits_1(flags):
    # 2,376,117, 6,725,106 and 29,433,964 lines: the count refuses each at once
    proc = run_cli("plan", *flags, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: too many lines: the plan needs ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_verify_footprints_narrower_than_an_ulp_fail(capsys):
    # 1e-100 m deep, every footprint rounds to its line's x: no pair shares
    # a cell, so every ratio is 0 and the region is all gaps
    argv = ["verify", str(GOLDEN / "plan.csv"), "--center-depth-m", "1e-100", "--alpha-deg", "0"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("finding: uncovered interval [0.000, ")
    assert "lines 1-2: rasterized overlap 0.00000 outside [0.09500, 0.20500]" in out
    assert out.endswith("FAIL: 86 finding(s)\n")


def test_verify_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n1,2\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.csv")]) == 2
    assert "cannot read plan file" in capsys.readouterr().err


def test_verify_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bin.csv"
    path.write_bytes(bytes(range(128, 256)))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read plan file: 'utf-8' codec can't decode"), err
    assert err.count("\n") == 1


# ------------------------------------------------ verify reads a CSV plan a line at a time


def _streamed_and_whole(path, *flags: str) -> tuple[tuple, tuple]:
    """``verify``'s (status, stdout, stderr) on the plan file at ``path``, in
    process, and as reading the file whole made them (``verify_read_whole``)."""
    argv = ["verify", str(path), *flags]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    _, given, overrides = parse_args(argv)
    return (code, out.getvalue(), err.getvalue()), verify_read_whole(
        path, load_config(given.get("--config"), overrides)
    )


GOLDEN_LINES = (GOLDEN / "plan.csv").read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("flags", [(), ("--eta", "0.5")], ids=["pass", "findings"])
def test_verify_reads_crlf_as_lf(flags, tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes((GOLDEN / "plan.csv").read_bytes().replace(b"\n", b"\r\n"))
    streamed, whole = _streamed_and_whole(crlf, *flags)
    assert streamed == whole == _streamed_and_whole(GOLDEN / "plan.csv", *flags)[0]
    assert streamed[0] == (1 if flags else 0)


@pytest.mark.parametrize("refused_row_first", [False, True], ids=["rows", "refused-row"])
def test_verify_refuses_a_byte_past_the_first_block_that_is_not_utf8(refused_row_first, tmp_path):
    # the file is read in 8 KiB blocks: a bad byte at 50,000 comes long after
    # the first rows are audited, and a refused row before it still loses
    cfg = load_config(None, {"eta_target": 0.99})
    plan = planner.plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    text = write_plan_csv(plan, cfg.region.edge_offset_d1, cfg.precision).encode()
    if refused_row_first:
        text = text.replace(b"\n", b"\nabc,,1\n", 2)
    path = tmp_path / "bad.csv"
    path.write_bytes(text[:50_000] + b"\xff" + text[50_000:])
    streamed, whole = _streamed_and_whole(path, "--eta", "0.99")
    assert streamed[:2] == whole[:2] == (2, "")
    for code, out, err in (streamed, whole):
        assert err.startswith("error: cannot read plan file: 'utf-8' codec can't decode"), err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        (GOLDEN_LINES[0], "error: plan file has no placement rows\n"),
        ("".join(GOLDEN_LINES[:1] + GOLDEN_LINES[-1:]), "error: plan file has no placement rows\n"),
        ("# a comment\n\n   \n# summary: lines=0\n", "error: no header row found\n"),
        (" \n\t\n", "error: empty plan file\n"),
    ],
    ids=["header", "header-and-summary", "no-header", "blank"],
)
def test_verify_refuses_a_file_with_no_row(text, message, tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text(text, encoding="utf-8")
    streamed, whole = _streamed_and_whole(path)
    assert streamed == whole == (2, "", message)


@pytest.mark.parametrize(
    "flags, row, message",
    [
        ((), "9000,0.1,10", "error: surfaced seabed: depth -28.681 m at x = 9000.000 m\n"),
        (("--alpha-deg", "10", "--theta-deg", "170"), "", "error: beam grazes seabed: "),
    ],
    ids=["dry-bed", "grazing"],
)
@pytest.mark.parametrize("malformed", [False, True], ids=["audited", "malformed-after"])
def test_verify_refuses_a_malformed_row_before_the_audit_refuses(
    flags, row, message, malformed, tmp_path
):
    # the audit refuses a grazing fan or dry bed only once every row is read,
    # so a malformed row later in the file is what the command reports
    lines = GOLDEN_LINES[:3] + ([row + "\n"] if row else []) + GOLDEN_LINES[3:]
    if malformed:
        lines.insert(-1, "7400,0.1,4 6\n")
    path = tmp_path / "plan.csv"
    path.write_text("".join(lines), encoding="utf-8")
    streamed, whole = _streamed_and_whole(path, *flags)
    assert streamed == whole
    if malformed:
        line = len(lines) - 1
        assert streamed == (2, "", f"error: line {line} width_m: not a number: '4 6'\n")
    else:
        assert streamed[:2] == (1, "") and streamed[2].startswith(message), streamed


# every line break str.splitlines knows that iterating a file does not split on
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SPLITLINES_ONLY, ids=[f"U+{ord(c):04X}" for c in SPLITLINES_ONLY])
def test_verify_splits_lines_as_read_plan_does(sep, tmp_path):
    rows = [line.rstrip("\n") for line in GOLDEN_LINES]
    path = tmp_path / "plan.csv"
    # rows 2-3 and 4-5 on one line of the file each: the same plan
    joined = [rows[0], rows[1], rows[2] + sep + rows[3], rows[4] + sep + rows[5], *rows[6:]]
    path.write_text("\n".join(joined) + "\n", encoding="utf-8", newline="")
    streamed, whole = _streamed_and_whole(path)
    assert streamed == whole == _streamed_and_whole(GOLDEN / "plan.csv")[0]
    # a break at a line's end is a blank line: the refused row after it is one further on
    text = "\n".join([rows[0], rows[1] + sep, "abc,,1", *rows[2:]]) + "\n"
    path.write_text(text, encoding="utf-8", newline="")
    line = text.splitlines().index("abc,,1") + 1
    assert line == 4
    streamed, whole = _streamed_and_whole(path)
    assert streamed == whole == (2, "", f"error: line {line} x_m: not a number: 'abc'\n")
    # a break inside a row splits it: each part is refused as read_plan refuses it
    path.write_text("\n".join([rows[0], rows[1], "951.797," + sep + "0.1,632.222"]), "utf-8")
    streamed, whole = _streamed_and_whole(path)
    assert streamed == whole == (2, "", "error: line 3: expected 3 fields, got 2\n")


@pytest.mark.parametrize("eta", ["0.99", "0.999"])
def test_verify_memory_per_line(eta, tmp_path, cli_peak_rss_kib):
    cfg = load_config(None, {"eta_target": float(eta)})
    plan = planner.plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    lines = plan.line_count
    path = tmp_path / "plan.csv"
    path.write_text(write_plan_csv(plan, cfg.region.edge_offset_d1, cfg.precision), "utf-8")
    floor_code, floor_kib = cli_peak_rss_kib("verify", "--help")
    code, kib = cli_peak_rss_kib("verify", str(path), "--eta", eta)
    assert (floor_code, code) == (0, 0)
    # x and two cell indices a line come to about 130 B; the file's text,
    # its line list and a placement a line, held at once, came to about 410
    # B a line over the floor at 2,945 lines and 390 B at 29,435
    assert (kib - floor_kib) * 1024 <= 256 * lines, (kib, floor_kib, lines)


@pytest.mark.parametrize(
    "argv, text, prefix",
    [
        (("verify",), "[" * 200_000 + "]" * 200_000, "error: not valid JSON: "),
        (
            ("plan", "--config"),
            '{"a":' * 100_000 + "1" + "}" * 100_000,
            "error: config is not valid JSON: ",
        ),
    ],
    ids=["plan", "config"],
)
def test_deeply_nested_json_exits_2(argv, text, prefix, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "recursion" in err, err
    assert err.count("\n") == 1


# ------------------------------------------------------------------ plot-data


def test_plot_data_default(capsys):
    assert main(["plot-data"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["region"] == {"width_ew_m": 7408.0, "length_ns_m": 3704.0}
    assert len(doc["survey_lines"]) == 34
    for seg in doc["survey_lines"]:
        assert seg["start"][2] == 0.0 and seg["end"][2] == 0.0
        assert seg["end"][1] - seg["start"][1] == pytest.approx(3704.0)
    assert all(corner[2] == 0.0 for corner in doc["sea_surface_corners"])
    depths = {tuple(c[:2]): c[2] for c in doc["seabed_corners"]}
    assert depths[(0.0, 0.0)] == pytest.approx(-206.993, abs=1e-3)
    assert depths[(7408.0, 0.0)] == pytest.approx(-13.0073, abs=1e-3)


def test_plot_data_flat_override(capsys):
    assert main(["plot-data", "--alpha-deg", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c[2] == pytest.approx(-110.0) for c in doc["seabed_corners"])


@pytest.mark.parametrize(
    "argv", [["plan"], ["plan", "--format", "json"], ["plot-data"]], ids=["csv", "json", "plot"]
)
def test_plan_and_plot_data_memory_per_line(argv, cli_peak_rss_kib):
    cfg = load_config(None, {"eta_target": 0.999})
    lines = planner.plan_survey(cfg.region, cfg.transducer, cfg.eta_target).line_count
    assert lines > 29_000
    floor_code, floor_kib = cli_peak_rss_kib("plan", "--help")
    code, kib = cli_peak_rss_kib(*argv, "--eta", "0.999")
    assert (floor_code, code) == (0, 0)
    # the placements take about 151 B a line; the whole text held at once
    # came to 9.2 (CSV), 14.8 (JSON) and 23.5 MiB (plot-data) over the floor
    assert (kib - floor_kib) * 1024 <= 256 * lines, (kib, floor_kib, lines)


# -------------------------------------------------------- errors and plumbing


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": 1}), encoding="utf-8")
    assert main(["width-table", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def _powers_of_ten(low: float, high: float) -> st.SearchStrategy[float]:
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


@st.composite
def extreme_flags(draw):
    """Scenario flags out to the edges of the doubles and of each angle's range."""
    depth = draw(_powers_of_ten(-300.0, 306.0))
    width_nm = draw(st.one_of(_powers_of_ten(-300.0, math.log10(9e304)), st.just(9e304)))
    theta = draw(st.one_of(st.floats(1e-6, 179.99999999), st.just(179.99999999)))
    alpha = draw(st.one_of(
        st.just(0.0), _powers_of_ten(-300.0, math.log10(89.9999999)), st.floats(0.0, 89.9999999)
    ))
    near_0 = _powers_of_ten(-12.0, -1.0)
    eta = draw(st.one_of(near_0, near_0.map(lambda e: 1.0 - e), st.floats(0.01, 0.99)))
    return [
        "--center-depth-m", repr(depth), "--region-ew-nm", repr(width_nm),
        "--theta-deg", repr(theta), "--alpha-deg", repr(alpha), "--eta", repr(eta),
        "--format", draw(st.sampled_from(["csv", "json"])),
    ]


OVERFLOW_FLAGS = ["--region-ew-nm", "9e304", "--theta-deg", "179", "--alpha-deg", "0"]


@settings(
    deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(flags=extreme_flags())
@example(flags=["--center-depth-m", "1e306", *OVERFLOW_FLAGS])  # the first width overflows
@example(flags=["--center-depth-m", "7e305", *OVERFLOW_FLAGS])  # the second line's x overflows
@example(flags=["--center-depth-m", "1e-100", "--alpha-deg", "0"])  # footprints under an ulp
def test_every_command_exits_0_1_or_2_on_extreme_scenarios(flags, monkeypatch):
    # at most 20,000 lines a plan bounds the work of plan, plot-data and verify
    monkeypatch.setattr(planner, "MAX_LINES", 20_000)
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = os.path.join(tmp, "plan.txt")
        for argv in (
            ["plan", "--out", plan_path],
            ["plot-data", "--out", os.path.join(tmp, "plot.json")],
            ["width-table", "--out", os.path.join(tmp, "widths.txt")],
            ["verify", plan_path],  # exits 2 when plan wrote no file
            ["verify", str(GOLDEN / "plan.csv")],
        ):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv + flags)
            assert code in (0, 1, 2), (argv, flags)


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    assert main(["plan", "--out", str(tmp_path / "no" / "such" / "dir.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("command", ["plan", "width-table"])
def test_unwritable_stdout_exits_2(command):
    # buffered, so the write fails when the output is flushed, not when it is made
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "swathplan", command],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1, proc.stderr
    assert "No space left" in proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["plan"], 2),
        (["width-table", "--format", "json"], 2),
        (["plan", "--out", "OUT"], 2),  # the summary line goes to stdout
        (["verify", "PLAN", "--out", "OUT"], 0),
        (["plot-data", "--out", "OUT"], 0),
    ],
)
def test_closed_stdout_exits_as_a_full_one(argv, code, tmp_path):
    # the child starts with fd 1 closed, so its sys.stdout is None
    plan = str(tmp_path / "plan.csv")
    assert main(["plan", "--out", plan]) == 0
    swaps = {"PLAN": plan, "OUT": str(tmp_path / "out.txt")}
    proc = subprocess.run(
        [sys.executable, "-m", "swathplan", *[swaps.get(arg, arg) for arg in argv]],
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("error:") == (code == 2), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_module_entrypoint_smoke():
    proc = run_cli("width-table")
    assert proc.returncode == 0
    assert proc.stdout.startswith("heading_deg,")


def _run_entry(code: str, *argv: str) -> subprocess.CompletedProcess:
    """A child that runs ``code`` after `from swathplan import cli`, then
    `cli.run()` on the command line ARGV."""
    return subprocess.run(
        [sys.executable, "-c", f"from swathplan import cli\n{code}\ncli.run()\n", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("status", [0, 1, 2, 3])
def test_run_exits_with_mains_status(status):
    proc = _run_entry(f"cli.main = lambda: {status}")
    assert proc.returncode == status, proc.stderr
    assert proc.stderr == ""


def test_run_runs_the_atexit_hooks():
    # the hook writes after main returns, and its text still reaches the pipe
    proc = _run_entry("import atexit\natexit.register(print, 'hook ran')", "plan")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "plan.csv").read_text(encoding="utf-8") + "hook ran\n"


def test_dense_plan_reaches_a_pipe_whole():
    # 2,945 lines, all written before the process ends without teardown
    proc = run_cli("plan", "--eta", "0.99", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("# summary: lines=2945 ")
    assert proc.stdout.count("\n") == 2947  # the header, the rows and the summary


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["plan"]) == 0
    assert gc.get_freeze_count() == before


def test_cli_module_entrypoint():
    # `python -m swathplan.cli` goes through run() as `python -m swathplan` does
    argv = [sys.executable, "-m", "swathplan.cli", "plan"]
    proc = subprocess.run(argv, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "plan.csv").read_bytes()
    proc = subprocess.run([*argv, "--no-such-flag"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_profiled_launch_writes_its_profile(tmp_path):
    # cProfile writes its file once the module it ran returns; run() leaves the
    # exit to the interpreter while a profiler is attached, so that return comes
    prof = tmp_path / "prof.out"
    argv = [sys.executable, "-m", "cProfile", "-o", str(prof), "-m", "swathplan", "plan"]
    proc = subprocess.run(argv, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "plan.csv").read_bytes()
    profiled = {name for _, _, name in pstats.Stats(str(prof)).stats}
    assert {"main", "plan_survey"} <= profiled


@pytest.mark.parametrize("status", [0, 1, 2])
def test_run_under_a_tracer_exits_through_the_interpreter(status):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import atexit, sys\nfrom swathplan import cli\n"
            "atexit.register(print, 'hook ran')\n"
            f"cli.main = lambda: {status}\n"
            "sys.settrace(lambda *args: None)\n"
            "try:\n    cli.run()\nexcept SystemExit as exit:\n    print('exit', exit.code)\n",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # the hooks run once, at the interpreter's exit
    assert proc.stdout == f"exit {status}\nhook ran\n"


def test_outputs_are_deterministic():
    first = run_cli("plan")
    second = run_cli("plan")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    table_a = run_cli("width-table", "--format", "json")
    table_b = run_cli("width-table", "--format", "json")
    assert table_a.stdout == table_b.stdout


# plan files for the verify cases below, written where the argument names them,
# and the row the error message must name
NON_FINITE_PLANS = {
    "x_inf.csv": ("x_m,overlap_prev,width_m\n76.6,,582.517\ninf,,582.517\n", "line 3"),
    "x_nan.csv": ("x_m,overlap_prev,width_m\nnan,,582.517\n", "line 2"),
    "width_inf.csv": ("x_m,overlap_prev,width_m\n76.6,,inf\n", "line 2"),
    # numbers written as text: float() would strip the blanks, drop the "_"
    # and read the full-width digits
    "x_blank.csv": ("x_m,overlap_prev,width_m\n76.6,,582.517\n 358.5 ,,582.517\n", "line 3 x_m"),
    "width_underscore.csv": ("x_m,overlap_prev,width_m\n76.6,,5_82.517\n", "line 2 width_m"),
    "x_fullwidth.csv": ("x_m,overlap_prev,width_m\n\uff17\uff16.6,,582.517\n", "line 2 x_m"),
    "x_nan.json": (
        '{"placements": [{"x_m": 76.6, "overlap_prev": null, "width_m": 582.517},'
        ' {"x_m": NaN, "overlap_prev": 0.1, "width_m": 582.517}]}',
        "placement 1",
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", "--center-depth-m", "nan"),
        ("plan", "--region-ew-nm", "inf"),
        ("plot-data", "--region-ns-nm", "-inf"),
        ("width-table", "--distances-nm", "nan,inf"),
        ("width-table", "--headings-deg", "0,nan"),
        ("verify", "x_inf.csv"),
        ("verify", "x_nan.csv"),
        ("verify", "width_inf.csv"),
        ("verify", "x_nan.json"),
        ("verify", "x_blank.csv"),
        ("verify", "width_underscore.csv"),
        ("verify", "x_fullwidth.csv"),
    ],
)
def test_non_finite_input_exits_2(argv, tmp_path):
    argv = list(argv)
    row = None
    if argv[-1] in NON_FINITE_PLANS:
        path = tmp_path / argv[-1]
        text, row = NON_FINITE_PLANS[argv[-1]]
        path.write_text(text, encoding="utf-8")
        argv[-1] = str(path)
    proc = run_cli(*argv, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    if row is not None:
        assert f"error: {row}: " in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# configs whose numbers print past the float range, and the field each
# command names: plan's first unprintable number is the total track
NON_FINITE_OUTPUT = [
    # 9.6e304 NM is 1.778e308 m, which rounds to 2e+308 at one digit
    ({"precision": 1, "region": {"length_ns_nm": 9.6e304}}, "total_track_nm", "length_ns_m"),
    # 34 lines of 1.667e308 m sum past the largest double; plot-data prints
    # no total, and 1.6668e+308 is finite
    ({"region": {"length_ns_nm": 9e304}}, "total_track_nm", None),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["plan", "plot-data"])
@pytest.mark.parametrize("doc, plan_field, plot_field", NON_FINITE_OUTPUT)
def test_output_that_prints_non_finite_exits_2(command, fmt, doc, plan_field, plot_field, tmp_path):
    field = plan_field if command == "plan" else plot_field
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({**doc, "format": fmt}), encoding="utf-8")
    proc = run_cli(command, "--config", str(cfg), timeout=60)
    if field is None:
        assert proc.returncode == 0, proc.stderr
        assert "Infinity" not in proc.stdout
        return
    # a refused output writes nothing, to stdout or to --out, and makes no file
    out = tmp_path / "out"
    to_file = run_cli(command, "--config", str(cfg), "--out", str(out), timeout=60)
    for proc in (proc, to_file):
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {field} does not print as a finite number")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == ""
    assert not out.exists()


def test_non_finite_config_exits_2(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"region": {"center_depth_m": NaN}}', encoding="utf-8")
    proc = run_cli("plan", "--config", str(cfg), timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_precision_too_big_to_format_exits_2(tmp_path):
    cfg = tmp_path / "precision.json"
    cfg.write_text('{"precision": 10000000000}', encoding="utf-8")
    for command in ("plan", "width-table"):
        proc = run_cli(command, "--config", str(cfg), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "precision" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_huge_precision_prints_under_a_memory_cap(tmp_path):
    # no double has more than 767 significant digits, so 2**31 - 1 prints what 767 prints
    outputs = {}
    for precision in (767, 2**31 - 1):
        cfg = tmp_path / f"precision{precision}.json"
        cfg.write_text(json.dumps({"precision": precision}), encoding="utf-8")
        for command in ("plan", "width-table"):
            proc = subprocess.run(
                [sys.executable, "-m", "swathplan", command, "--config", str(cfg)],
                capture_output=True,
                text=True,
                timeout=60,
                preexec_fn=_cap_address_space,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.setdefault(command, set()).add(proc.stdout)
    assert all(len(texts) == 1 for texts in outputs.values())


BIG_INT = "1" + "0" * 5000  # past the 4,300 digits that int() converts from text


@pytest.mark.parametrize(
    "argv, text, where",
    [
        (("plan", "--config"), f'{{"eta_target": {BIG_INT}}}', None),
        (("verify",), f'{{"placements": [{{"x_m": {BIG_INT}, "width_m": 582.517}}]}}', None),
        # too large for a float, and not a number at all
        (
            ("verify",),
            f'{{"placements": [{{"x_m": 1{"0" * 400}, "width_m": 582.517}}]}}',
            "placement 0",
        ),
        (
            ("verify",),
            '{"placements": [{"x_m": 76.6, "width_m": 582.517, "overlap_prev": "x"}]}',
            "placement 0",
        ),
        # JSON booleans are not numbers, although float(true) is 1.0
        (("verify",), '{"placements": [{"x_m": true, "width_m": 582.517}]}', "placement 0"),
        (("verify",), '{"placements": [{"x_m": 76.6, "width_m": false}]}', "placement 0"),
        # nor are strings, although float(" 76.6 ") is 76.6 and float("5_82.517") 582.517
        (
            ("verify",),
            '{"placements": [{"x_m": 76.6, "width_m": 582.517},'
            ' {"x_m": " 76.6 ", "width_m": 582.517}]}',
            "placement 1",
        ),
        (("verify",), '{"placements": [{"x_m": 76.6, "width_m": "5_82.517"}]}', "placement 0"),
    ],
    ids=[
        "config-long-int", "plan-long-int", "plan-float-overflow", "plan-text-overlap",
        "plan-bool-x", "plan-bool-width", "plan-text-x", "plan-text-width",
    ],
)
def test_unconvertible_json_number_exits_2(argv, text, where, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    proc = run_cli(*argv, str(path), timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    if where is not None:
        assert f"error: {where}: " in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


def _modules_loaded(*argv: str, status: int = 0) -> set[str]:
    """Modules `python -m swathplan ARGV` imports once the interpreter is up,
    each by its full name and by its top-level package's; the launch must
    exit with ``status``."""
    # -X importtime lists on stderr every module the process imports, each
    # after the modules it imported; those up to `site` come with every launch
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "swathplan", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == status, proc.stderr
    names = [
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    if "site" in names:
        names = names[names.index("site") + 1 :]
    return {*names, *[name.partition(".")[0] for name in names]}


# No launch needs numpy or the dataclass machinery. A launch from flags alone
# reads no JSON document, and every writer prints JSON from fixed templates.
# Only verify compiles the plan reader and the audit, and only width-table
# the stripes. Only the commands that plan compile the planner, and only
# those that write a plan file the plan writers (``verify`` reads a plan
# with the reader alone, and a CSV plan with no JSON parser). Every command
# compiles the handlers, and a launch that runs none (help, a usage error, a
# config error) compiles neither them nor anything they import. The
# width-table worker is a bare fork, with no process or pool library. The
# command line is read from cli.FLAGS, with no parser library, whose
# messages would load gettext and, through it, locale.
NEVER_LOADED = {"numpy", "dataclasses", "inspect", "copy", "argparse", "gettext", "locale"}
READER, STRIPES = "swathplan.planreader", "swathplan.stripes"
PLANNER, PLANFILE, VERIFIER = "swathplan.planner", "swathplan.planfile", "swathplan.verifier"
HANDLERS, JSONWRITER = "swathplan.commands", "swathplan.jsonwriter"
PLAN_LOADS_NONE_OF = NEVER_LOADED | {"json", READER, STRIPES, VERIFIER}
WIDTH_TABLE_LOADS_NONE_OF = NEVER_LOADED | {
    "json", "multiprocessing", "concurrent", "subprocess", READER, PLANNER, PLANFILE, VERIFIER
}
LAUNCH_IMPORTS = [
    (["plan", "--out", "PLAN"], PLAN_LOADS_NONE_OF),
    (["plan", "--alpha-deg", "1.2", "--eta", "0.2"], PLAN_LOADS_NONE_OF),
    (["plan", "--format", "json"], PLAN_LOADS_NONE_OF),
    (["verify", "PLAN"], NEVER_LOADED | {"json", STRIPES, PLANNER, PLANFILE, JSONWRITER}),
    (["width-table", "--headings-deg", "0,90", "--distances-nm", "0,1"], WIDTH_TABLE_LOADS_NONE_OF),
    (["width-table", "--format", "json"], WIDTH_TABLE_LOADS_NONE_OF),
    # 20,000 cells, so the worker runs
    (["width-table", *WORKER_GRID_FLAGS], WIDTH_TABLE_LOADS_NONE_OF),
    (["plot-data"], PLAN_LOADS_NONE_OF),
]
RUNS_NO_COMMAND = NEVER_LOADED | {
    HANDLERS, JSONWRITER, PLANNER, PLANFILE, READER, STRIPES, VERIFIER
}
# Each launch that runs no command, and its exit status.
NO_COMMAND_LAUNCHES = [
    (["--help"], 0),
    (["plan", "--help"], 0),
    (["plan", "--no-such-flag"], 2),
    (["plan", "--config", "MISSING"], 2),
]


def test_launches_load_only_what_they_run(tmp_path):
    plan = str(tmp_path / "plan.csv")
    for argv, banned in LAUNCH_IMPORTS:
        loaded = _modules_loaded(*[plan if arg == "PLAN" else arg for arg in argv])
        # the gate sees submodules: each command loads what it runs
        assert {"verify": READER, "width-table": STRIPES}.get(argv[0], "swathplan") in loaded, argv
        assert HANDLERS in loaded, argv
        assert not loaded & banned, (argv, sorted(loaded & banned))
    missing = str(tmp_path / "missing.json")
    for argv, status in NO_COMMAND_LAUNCHES:
        loaded = _modules_loaded(*[missing if a == "MISSING" else a for a in argv], status=status)
        assert "swathplan.cli" in loaded, argv
        assert not loaded & RUNS_NO_COMMAND, (argv, sorted(loaded & RUNS_NO_COMMAND))


# ------------------------------------------------- flags and config file agree

# The config document each scenario flag stands for.
FLAG_DOCUMENTS = {
    "--alpha-deg": lambda v: {"seabed": {"slope_alpha_deg": v}, "region": {"slope_alpha_deg": v}},
    "--theta-deg": lambda v: {"transducer": {"opening_angle_deg": v}},
    "--eta": lambda v: {"eta_target": v},
    "--center-depth-m": lambda v: {"region": {"center_depth_m": v}},
    "--region-ew-nm": lambda v: {"region": {"width_ew_nm": v}},
    "--region-ns-nm": lambda v: {"region": {"length_ns_nm": v}},
    "--headings-deg": lambda v: {"headings_deg": v},
    "--distances-nm": lambda v: {"distances_nm": v},
    "--format": lambda v: {"format": v},
}
# Per number flag: out of range below and above, a value on the edge of the
# valid range, and the range the seeded valid values come from.
FLOAT_FLAG_VALUES = {
    "--alpha-deg": ("-1", "90", "0", (0.5, 1.5)),
    "--theta-deg": ("0", "180", "179.99", (60.0, 150.0)),
    "--eta": ("0", "1", "5e-324", (0.05, 0.3)),
    "--center-depth-m": ("-5", "0", "5e-324", (100.0, 300.0)),
    "--region-ew-nm": ("-1", "0", "0.001", (0.5, 4.0)),
    "--region-ns-nm": ("-1", "0", "0.001", (0.5, 5.0)),
}
LIST_FLAG_VALUES = {
    "--headings-deg": (["nan", "0,inf", "-inf", "0,360", "-0.5", "0,359.999"], (0.0, 359.0)),
    "--distances-nm": (["nan", "0,inf", "-inf,0", "1e400", "1e306,-1e306", "0"], (-2.0, 2.0)),
}


def _flag_cases(flag):
    """(flag text, config value) pairs: non-finite, out of range, edge, then seeded valid."""
    rng = random.Random(flag)
    if flag == "--format":
        return [("csv", "csv"), ("json", "json")]
    if flag in LIST_FLAG_VALUES:
        texts, (lo, hi) = LIST_FLAG_VALUES[flag]
        texts = texts + [
            ",".join(str(round(rng.uniform(lo, hi), 3)) for _ in range(3)) for _ in range(4)
        ]
        return [(text, [float(part) for part in text.split(",")]) for text in texts]
    below, above, edge, (lo, hi) = FLOAT_FLAG_VALUES[flag]
    texts = ["nan", "inf", "-inf", "1e400", below, above, edge]
    texts += [str(round(rng.uniform(lo, hi), 3)) for _ in range(8)]
    return [(text, float(text)) for text in texts]


def _outcome(argv, capsys):
    return (main(argv), *capsys.readouterr())


@pytest.mark.parametrize("flag", list(FLAG_DOCUMENTS))
def test_flags_and_config_file_agree(flag, tmp_path, capsys):
    # a flag acts as its keys in a config file would: same exit code, stdout and
    # stderr, whether its value follows "=" or comes as the next argument (which
    # may start with "-", as "-inf" and "-inf,0" do)
    commands = ["width-table"]  # the only subcommand with the list flags
    if flag not in LIST_FLAG_VALUES:
        commands += ["plan", "plot-data"]
    path = tmp_path / "scenario.json"
    mismatches = []
    for text, value in _flag_cases(flag):
        path.write_text(json.dumps(FLAG_DOCUMENTS[flag](value)), encoding="utf-8")
        for command in commands:
            by_file = _outcome([command, "--config", str(path)], capsys)
            for given in ([f"{flag}={text}"], [flag, text]):
                by_flag = _outcome([command, *given], capsys)
                if by_flag != by_file:
                    mismatches.append((command, given, by_flag[0::2], by_file[0::2]))
    assert not mismatches


# ------------------------------------------------------------ usage and help

COMMANDS = ["width-table", "plan", "verify", "plot-data"]


def _accepted_flags(command):
    flags = ["--config", "--out", *FLAG_DOCUMENTS]
    return {flag for flag in flags if command == "width-table" or flag not in LIST_FLAG_VALUES}


def _in_and_out_of_process(argv, capsys):
    """(status, stdout, stderr) of main(argv), then of `python -m swathplan ARGV`."""
    code = main(argv)
    out, err = capsys.readouterr()
    proc = run_cli(*argv, timeout=60)
    return [(code, out, err), (proc.returncode, proc.stdout, proc.stderr)]


@pytest.mark.parametrize("command", ["", *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_what_the_command_accepts(command, flag, capsys):
    argv = [command, flag] if command else [flag]
    for code, out, err in _in_and_out_of_process(argv, capsys):
        assert (code, err) == (0, ""), err
        assert out.startswith(f"usage: swathplan {command}".rstrip() + " [-h]"), out
        words = set(out.split())
        if command:  # every flag it takes, and no other
            assert words & _accepted_flags("width-table") == _accepted_flags(command), out
        else:
            assert set(COMMANDS) <= words, out


USAGE_ERRORS = [
    ([], "", "expected a command (width-table, plan, verify, plot-data)"),
    (["survey"], "", "got 'survey'"),
    (["plan", "--headings-deg", "0"], "plan", "unrecognized arguments: --headings-deg"),
    (["verify"], "verify", "the following arguments are required: PLAN"),
    (["verify", "a.csv", "b.csv"], "verify", "unrecognized arguments: b.csv"),
] + [
    ([command, *(["a.csv"] if command == "verify" else []), *tail], command, message)
    for command in COMMANDS
    for tail, message in [
        (["--eta"], "argument --eta: expected one argument"),
        (["--eta", "abc"], "argument --eta: could not convert string to float: 'abc'"),
        # flag names are never abbreviated
        (["--alpha", "2"], "unrecognized arguments: --alpha"),
    ]
]


@pytest.mark.parametrize("argv, command, message", USAGE_ERRORS)
def test_usage_errors_exit_2_with_one_error_line(argv, command, message, capsys):
    prog = f"swathplan {command}".rstrip()
    for code, out, err in _in_and_out_of_process(argv, capsys):
        assert (code, out) == (2, ""), err
        usage, error = err.splitlines()  # and so no traceback
        assert usage.startswith(f"usage: {prog} [-h]"), err
        assert error.startswith(f"{prog}: error: ") and message in error, err


def test_a_repeated_flag_takes_its_last_value(tmp_path, capsys):
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert main(["plan", "--eta", "0.3", "--out", str(first), "--eta=0.2", f"--out={last}"]) == 0
    capsys.readouterr()
    assert main(["plan", "--eta", "0.2"]) == 0
    assert last.read_text(encoding="utf-8") == capsys.readouterr().out
    assert not first.exists()
