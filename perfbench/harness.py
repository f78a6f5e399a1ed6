"""Scenarios, fresh-process launches and output checks shared by both kinds of run.

A scenario is one survey configuration.  ``setup`` writes its config and the
plan file that ``verify`` reads; a ``Launcher`` times one fresh process at a
time; ``probe`` times the fixed speed probe; the ``Checker`` holds every
output to ``oracle.py``: the first output of each (scenario, subcommand) by
value, every later one by its bytes and exit code.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NM = oracle.METERS_PER_NM
OPS = ("plan", "verify", "width-table", "plot-data")
SIG = 6  # significant digits the CLI prints by default
SETUP_REPS = 3
MIN_ROUNDS = 2
LAUNCH_TIMEOUT_S = 150.0
# About the speed probe's median time on the two-core VM where the benchmark
# was defined (0.29-0.32 s); a scaled time is wall time * PROBE_REF_S / probe time.
PROBE_REF_S = 0.3
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)
PAPER_HEADINGS = [45.0 * i for i in range(8)]
PAPER_DISTANCES_NM = [round(0.3 * i, 1) for i in range(8)]


@dataclass
class Scenario:
    """One survey scenario; every field feeds both the CLI and the oracle."""

    name: str
    width_ew_nm: float = 4.0
    length_ns_nm: float = 2.0
    center_depth_m: float = 110.0
    alpha_deg: float = 1.5  # region dip
    seabed_depth_m: float = 120.0  # width-table depth at the line origin
    seabed_alpha_deg: float = 1.5
    theta_deg: float = 120.0
    eta: float = 0.10
    eta_min: float = 0.10
    eta_max: float = 0.20
    headings_deg: list[float] = field(default_factory=lambda: list(PAPER_HEADINGS))
    distances_nm: list[float] = field(default_factory=lambda: list(PAPER_DISTANCES_NM))
    fmt: str = "csv"
    flags: list[str] | None = None  # CLI overrides on the defaults; None writes a config
    known_fault: str | None = None  # why a correct plan is expected to fail verify
    lines: list[oracle.Line] | None = field(default=None, repr=False)  # oracle layout, cached

    def config(self) -> dict:
        return {
            "seabed": {"reference_depth_m": self.seabed_depth_m,
                       "slope_alpha_deg": self.seabed_alpha_deg},
            "transducer": {"opening_angle_deg": self.theta_deg},
            "region": {"width_ew_nm": self.width_ew_nm, "length_ns_nm": self.length_ns_nm,
                       "center_depth_m": self.center_depth_m, "slope_alpha_deg": self.alpha_deg},
            "eta_target": self.eta,
            "eta_min": self.eta_min,
            "eta_max": self.eta_max,
            "headings_deg": self.headings_deg,
            "distances_nm": self.distances_nm,
            "format": self.fmt,
        }

    def plan_path(self, work: Path) -> Path:
        return work / f"{self.name}.plan.{self.fmt}"

    def argv(self, op: str, work: Path) -> list[str]:
        argv = [op]
        if op == "verify":
            argv.append(str(self.plan_path(work)))
        if self.flags is None:
            argv += ["--config", str(work / f"{self.name}.json")]
        else:
            argv += self.flags
        return argv


# Workloads.  Each returns the scenarios of one round; the seed moves depths,
# dips, overlap targets and grid offsets, never the amount of work by more
# than a few per cent, so runs with different seeds stay comparable.

def reference(rng: random.Random) -> list[Scenario]:
    """The paper's scenario, seeded neighbours and the flat bed: process start dominates."""
    scenarios = [Scenario("paper", flags=[])]
    for i in range(3):
        # dips up to the paper's 1.5 deg over centres at least as deep as its
        # 110 m keep the east edge under water (13 m deep at the paper's pair)
        alpha = round(rng.uniform(1.2, 1.5), 3)
        eta = round(rng.uniform(0.10, 0.15), 3)
        scenarios.append(Scenario(
            f"variant{i}",
            center_depth_m=round(110.0 * rng.uniform(1.0, 1.1), 3),
            alpha_deg=alpha,
            seabed_depth_m=round(120.0 * rng.uniform(0.9, 1.1), 3),
            seabed_alpha_deg=alpha,
            eta=eta,
            eta_min=round(eta - 0.01, 3),
            eta_max=round(eta + 0.10, 3),
            fmt="json" if i == 1 else "csv",
        ))
    scenarios.append(Scenario(
        "flat_bed", alpha_deg=0.0, seabed_alpha_deg=0.0, flags=["--alpha-deg", "0"],
        known_fault="verify requires strictly decreasing widths, which a flat bed cannot have",
    ))
    return scenarios


def dense_overlap(rng: random.Random) -> list[Scenario]:
    """High overlap targets: the greedy bisection and the per-line raster masks dominate."""
    scenarios = []
    for eta, fmt in ((0.9, "csv"), (0.95, "json"), (0.99, "csv")):
        scenarios.append(Scenario(
            f"eta{eta:g}",
            center_depth_m=round(110.0 * rng.uniform(0.99, 1.01), 3),
            eta=eta,
            eta_min=round(eta - 0.01, 3),
            eta_max=round(min(eta + 0.005, 0.995), 3),
            fmt=fmt,
        ))
    return scenarios


def wide_area(rng: random.Random) -> list[Scenario]:
    """200 NM at 4,000 m and a 360 x 1,000 width grid: raster and width_table dominate."""
    heading_offset = rng.uniform(0.0, 0.99)
    distance_offset = rng.uniform(0.0, 1.0)
    return [Scenario(
        "wide",
        width_ew_nm=200.0,
        center_depth_m=round(4000.0 * rng.uniform(0.99, 1.01), 2),
        alpha_deg=1.0,
        eta_min=0.09,
        headings_deg=[round(i + heading_offset, 4) for i in range(360)],
        distances_nm=[round((i + distance_offset) * 0.003, 7) for i in range(1000)],
    )]


WORKLOADS = {"reference": reference, "dense_overlap": dense_overlap, "wide_area": wide_area}


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Launcher:
    """Runs fresh processes one at a time through ``launcher.py``.

    The helper reports each child's wall time (fork to exit), CPU time and
    peak RSS; see its docstring for why it is a process of its own.  Close
    the launcher (or use it as a context manager) to stop the helper.
    """

    def __init__(self, work: Path):
        self.work = work
        self.helper = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV, text=True)

    def __call__(self, argv: list[str], python_args: list[str] | None = None) -> Launch:
        """Run ``python -m swathplan *argv`` (or ``python *python_args *argv``) to exit."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"cmd": [sys.executable, *(python_args or ["-m", "swathplan"]), *argv],
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout_s": LAUNCH_TIMEOUT_S}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise Failure(f"launcher exited with {self.helper.wait()}")
        r = json.loads(reply)
        return Launch(r["wall_s"], r["cpu_s"], r["rss_kb"] / 1024.0, r["code"],
                      out_path.read_bytes(), err_path.read_bytes())

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=LAUNCH_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Failure(Exception):
    """An output disagrees with the oracle."""


def setup(scenarios: list[Scenario], launch: Launcher) -> None:
    """Write configs and the plan files ``verify`` reads, then start each other subcommand once."""
    work = launch.work
    for sc in scenarios:
        if sc.flags is None:
            (work / f"{sc.name}.json").write_text(json.dumps(sc.config()), encoding="utf-8")
    for sc in scenarios:
        res = launch(sc.argv("plan", work) + ["--out", str(sc.plan_path(work))])
        lines = len(expected_lines(sc))
        if res.code != 0 or not res.stdout.decode().startswith(f"{lines} lines, "):
            raise Failure(f"{sc.name}: plan --out exited {res.code}: {res.stdout!r} {res.stderr!r}")
    for op in OPS[1:]:  # imports everything and fills the file cache, computes nothing
        res = launch([op, "--help"])
        expect(res.code == 0, f"{op} --help exited {res.code}: {res.stderr!r}")


def probe(launch: Launcher) -> float:
    """Wall time of one run of the fixed speed probe, calibrate.py."""
    res = launch([], [str(HERE / "calibrate.py")])
    expect(res.code == 0, f"speed probe exited {res.code}: {res.stderr!r}")
    return res.wall_s


# ---------------------------------------------------------------- checking

def expected_lines(sc: Scenario) -> list[oracle.Line]:
    if sc.lines is None:
        try:
            sc.lines = oracle.layout(
                sc.width_ew_nm * NM, sc.center_depth_m, sc.alpha_deg, sc.theta_deg, sc.eta)
        except ValueError as err:
            raise Failure(f"{sc.name}: no layout: {err}") from err
    return sc.lines


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Failure(what)


def parse_plan(text: str) -> tuple[list[tuple[str, str, str]], dict[str, str]]:
    """Rows (x, overlap, width) and summary fields of a CSV or JSON plan, as printed."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        rows = [(repr(p["x_m"]), "" if p["overlap_prev"] is None else repr(p["overlap_prev"]),
                 repr(p["width_m"])) for p in doc["placements"]]
        s = doc["summary"]
        return rows, {"lines": str(s["line_count"]), "total_track_nm": repr(s["total_track_nm"]),
                      "line_length_m": repr(s["line_length_m"]), "d1_m": repr(s["d1_m"])}
    body = text.splitlines()
    expect(body[0] == "x_m,overlap_prev,width_m", f"plan header {body[0]!r}")
    expect(body[-1].startswith("# summary: "), f"plan summary {body[-1]!r}")
    rows = [tuple(line.split(",")) for line in body[1:-1]]
    summary = dict(kv.split("=", 1) for kv in body[-1][len("# summary: "):].split())
    return rows, summary


def check_plan(sc: Scenario, text: str) -> None:
    lines = expected_lines(sc)
    rows, summary = parse_plan(text)
    expect(len(rows) == len(lines), f"{sc.name}: {len(rows)} lines, oracle {len(lines)}")
    for i, ((x, overlap, width), line) in enumerate(zip(rows, lines)):
        expect(oracle.agrees(x, line.x, SIG), f"{sc.name} line {i + 1}: x {x}, oracle {line.x}")
        expect(oracle.agrees(width, line.width, SIG),
               f"{sc.name} line {i + 1}: width {width}, oracle {line.width}")
        if i == 0:
            expect(overlap == "", f"{sc.name}: first line overlap {overlap!r}")
        else:
            expect(sc.eta <= float(overlap) <= sc.eta + 1e-4,
                   f"{sc.name} line {i + 1}: overlap {overlap} against target {sc.eta}")
    length = sc.length_ns_nm * NM
    d1 = 0.5 * sc.width_ew_nm * NM * math.tan(math.radians(sc.alpha_deg))
    expect(summary["lines"] == str(len(lines)), f"{sc.name}: summary {summary}")
    expect(oracle.agrees(summary["total_track_nm"], len(lines) * length / NM, SIG)
           and oracle.agrees(summary["line_length_m"], length, SIG)
           and oracle.agrees(summary["d1_m"], d1, SIG), f"{sc.name}: summary {summary}")


def verify_verdict(sc: Scenario, plan_text: str) -> oracle.Verdict:
    rows, _ = parse_plan(plan_text)
    return oracle.coverage_verdict(
        [float(r[0]) for r in rows], [float(r[2]) for r in rows], sc.width_ew_nm * NM,
        sc.center_depth_m, sc.alpha_deg, sc.theta_deg, sc.eta_min, sc.eta_max)


def check_verify(sc: Scenario, text: str, code: int, verdict: oracle.Verdict) -> bool:
    """True if the program agrees with the oracle; False for the scenario's known fault."""
    last = text.splitlines()[-1] if text else ""
    if verdict.passed and code == 1 and sc.known_fault and last.startswith("FAIL: "):
        return False
    expect(code == (0 if verdict.passed else 1),
           f"{sc.name}: verify exited {code}, oracle verdict {verdict}")
    if verdict.passed:
        expect(last.startswith(f"PASS: {len(verdict.ratios) + 1} lines cover the region"),
               f"{sc.name}: verify said {last!r}")
    else:
        expect(last.startswith("FAIL: "), f"{sc.name}: verify said {last!r}")
    return True


def check_width_table(sc: Scenario, text: str) -> None:
    cells = oracle.width_cells(sc.seabed_depth_m, sc.seabed_alpha_deg, sc.theta_deg,
                               sc.headings_deg, [d * NM for d in sc.distances_nm])
    if sc.fmt == "json":
        doc = json.loads(text)
        rows = [(repr(r["heading_deg"]), ["ERR" if v is None else repr(v)
                                          for v in r["widths_m"].values()]) for r in doc]
        labels = list(doc[0]["widths_m"])
    else:
        body = text.splitlines()
        labels = body[0].split(",")[1:]
        expect(body[0].startswith("heading_deg,"), f"{sc.name}: width-table header")
        rows = [(r[0], r[1:]) for r in (line.split(",") for line in body[1:])]
    expect(len(labels) == len(sc.distances_nm)
           and all(oracle.agrees(t, d, SIG) for t, d in zip(labels, sc.distances_nm)),
           f"{sc.name}: width-table columns")
    expect(len(rows) == len(sc.headings_deg), f"{sc.name}: {len(rows)} width-table rows")
    for (heading, printed), beta, row in zip(rows, sc.headings_deg, cells):
        expect(oracle.agrees(heading, beta, SIG), f"{sc.name}: heading {heading} for {beta}")
        expect(len(printed) == len(row), f"{sc.name}: heading {heading} has {len(printed)} cells")
        for cell, want in zip(printed, row):
            ok = cell == "ERR" if want is None else oracle.agrees(cell, want, SIG)
            expect(ok, f"{sc.name}: heading {heading}: cell {cell}, oracle {want}")


def check_plot_data(sc: Scenario, text: str) -> None:
    doc = json.loads(text)
    lines = expected_lines(sc)
    w, length = sc.width_ew_nm * NM, sc.length_ns_nm * NM
    d_w = oracle.west_depth(w, sc.center_depth_m, sc.alpha_deg)
    ta = math.tan(math.radians(sc.alpha_deg))
    expect(oracle.agrees(repr(doc["region"]["width_ew_m"]), w)
           and oracle.agrees(repr(doc["region"]["length_ns_m"]), length), f"{sc.name}: region")
    for (x, y, z), (sx, sy, sz) in zip(doc["seabed_corners"], doc["sea_surface_corners"]):
        expect(sz == 0.0 and (sx, sy) == (x, y) and oracle.agrees(repr(-z), d_w - x * ta),
               f"{sc.name}: seabed corner {(x, y, z)}")
    survey = doc["survey_lines"]
    expect(len(survey) == len(lines), f"{sc.name}: {len(survey)} plotted lines")
    for i, (entry, line) in enumerate(zip(survey, lines)):
        x = entry["x_m"]
        expect(entry["line"] == i + 1 and oracle.agrees(repr(x), line.x)
               and entry["start"] == [x, 0.0, 0.0]
               and entry["end"][0] == x and oracle.agrees(repr(entry["end"][1]), length),
               f"{sc.name}: plotted line {entry}")


class Checker:
    """Checks the first output of every (scenario, op) against the oracle, the rest by bytes."""

    def __init__(self, work: Path):
        self.work = work
        self.seen: dict[tuple[str, str], bytes] = {}
        self.verdicts: dict[str, oracle.Verdict] = {}

    def __call__(self, sc: Scenario, op: str, code: int, stdout: bytes, stderr: bytes) -> bool:
        """Raise Failure on a wrong output; return False for the known fault."""
        key = (sc.name, op)
        digest = hashlib.sha256(stdout + b"\0exit=%d" % code).digest()
        try:
            if key in self.seen:
                expect(self.seen[key] == digest, f"{sc.name} {op}: output differs between launches")
            else:
                self.seen[key] = digest
                self.check_first(sc, op, code, stdout, stderr)
            if op != "verify":
                return True
            if sc.name not in self.verdicts:
                plan_text = sc.plan_path(self.work).read_text(encoding="utf-8")
                self.verdicts[sc.name] = verify_verdict(sc, plan_text)
            return check_verify(sc, stdout.decode(), code, self.verdicts[sc.name])
        except (ValueError, KeyError, IndexError, TypeError) as err:  # unparsable output
            raise Failure(f"{sc.name} {op}: cannot read output: {err!r}") from err

    def check_first(self, sc: Scenario, op: str, code: int, stdout: bytes, stderr: bytes) -> None:
        if op == "verify":
            return
        expect(code == 0, f"{sc.name} {op}: exit {code}: {stderr.decode(errors='replace')[-500:]}")
        text = stdout.decode()
        if op == "plan":
            check_plan(sc, text)
            saved = sc.plan_path(self.work).read_bytes()
            expect(saved == stdout, f"{sc.name}: plan --out differs from stdout")
        elif op == "width-table":
            check_width_table(sc, text)
        else:
            check_plot_data(sc, text)
