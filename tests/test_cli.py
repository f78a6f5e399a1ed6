"""Command line behavior: outputs, exit codes, overrides, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from swathplan.cli import main


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


def test_verify_passes_flat_bed_plan(tmp_path, capsys):
    # equal widths are the right shape on a flat bed, not a finding
    plan_path = tmp_path / "flat.csv"
    assert main(["plan", "--alpha-deg", "0", "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(plan_path), "--alpha-deg", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n1,2\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.csv")]) == 2
    assert "cannot read plan file" in capsys.readouterr().err


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


# -------------------------------------------------------- errors and plumbing


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": 1}), encoding="utf-8")
    assert main(["width-table", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    assert main(["plan", "--out", str(tmp_path / "no" / "such" / "dir.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entrypoint_smoke():
    proc = run_cli("width-table")
    assert proc.returncode == 0
    assert proc.stdout.startswith("heading_deg,")


def test_outputs_are_deterministic():
    first = run_cli("plan")
    second = run_cli("plan")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    table_a = run_cli("width-table", "--format", "json")
    table_b = run_cli("width-table", "--format", "json")
    assert table_a.stdout == table_b.stdout


# plan files for the verify cases below, written where the argument names them
NON_FINITE_PLANS = {
    "x_inf.csv": "x_m,overlap_prev,width_m\ninf,,582.517\n",
    "x_nan.csv": "x_m,overlap_prev,width_m\nnan,,582.517\n",
    "width_inf.csv": "x_m,overlap_prev,width_m\n76.6,,inf\n",
    "x_nan.json": '{"placements": [{"x_m": NaN, "overlap_prev": null, "width_m": 582.517}]}',
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
    ],
)
def test_non_finite_input_exits_2(argv, tmp_path):
    argv = list(argv)
    if argv[-1] in NON_FINITE_PLANS:
        path = tmp_path / argv[-1]
        path.write_text(NON_FINITE_PLANS[argv[-1]], encoding="utf-8")
        argv[-1] = str(path)
    proc = run_cli(*argv, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_non_finite_config_exits_2(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"region": {"center_depth_m": NaN}}', encoding="utf-8")
    proc = run_cli("plan", "--config", str(cfg), timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr


BIG_INT = "1" + "0" * 5000  # past the 4,300 digits that int() converts from text


@pytest.mark.parametrize(
    "argv, text",
    [
        (("plan", "--config"), f'{{"eta_target": {BIG_INT}}}'),
        (("verify",), f'{{"placements": [{{"x_m": {BIG_INT}, "width_m": 582.517}}]}}'),
        # too large for a float, and not a number at all
        (("verify",), f'{{"placements": [{{"x_m": 1{"0" * 400}, "width_m": 582.517}}]}}'),
        (("verify",), '{"placements": [{"x_m": 76.6, "width_m": 582.517, "overlap_prev": "x"}]}'),
    ],
    ids=["config-long-int", "plan-long-int", "plan-float-overflow", "plan-text-overlap"],
)
def test_unconvertible_json_number_exits_2(argv, text, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    proc = run_cli(*argv, str(path), timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numpy_is_loaded_by_verify_only():
    script = (
        "import contextlib, io, sys\n"
        "import swathplan\n"
        "from swathplan import cli\n"
        "assert 'numpy' not in sys.modules, 'import swathplan'\n"
        "for cmd in ('plan', 'width-table', 'plot-data'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main([cmd]) == 0\n"
        "    assert 'numpy' not in sys.modules, cmd\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
