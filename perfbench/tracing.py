"""Traced run: per-layer spans and counts for swathplan, recorded from outside it.

Loaded only by ``run.py --trace 1``, so the end-to-end run never imports it.
It imports swathplan from the checkout's ``src`` and replaces every public
function of ``cli``, ``config``, ``geometry``, ``planner``, ``planfile`` and
``verifier`` with a wrapper that records a span (name, start, end, parent,
round) wherever the function is bound, so calls between modules are seen
too.  Spans stay in memory and are written as JSON lines when the run ends.

A traced round calls ``cli.main(argv)`` in-process for every operation of
the workload's round.  Each traced round is followed by the same round with
the wrappers removed; the difference of their medians is the tracing
overhead.  Fresh-process figures (import time, whether numpy got loaded,
child CPU time, interpreter floors) come from separate child processes.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import io
import json
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import harness

MODULES = ("cli", "config", "geometry", "planner", "planfile", "verifier")
# Helpers called once per swath evaluation or per printed number.  A span on
# each would multiply the traced run's cost; swath_at calls made by the
# planner are counted instead, the rest are left alone.
PER_EVALUATION = {
    "geometry.along_line_depth", "geometry.effective_slope", "geometry.horizontal_footprint",
    "geometry.swath_cross_section", "planner.depth_at_x", "planner.overlap_ratio",
    "planner.swath_at", "planfile.format_sig", "planfile.format_ratio",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import swathplan.cli; "
    "print(time.perf_counter() - t)"
)
MAIN_PROBE = (
    "import contextlib, io, json, sys\n"
    "from swathplan import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n"
)
FLOOR_SAMPLES = 5


def _span_attrs(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Counts recorded at the boundary where the work happens."""
    if name == "cli.main":
        return {"cmd": args[0][0]}
    if name == "planner.plan_survey":
        return {"lines": len(result.placements)}
    if name in ("planfile.write_plan_csv", "planfile.write_plan_json"):
        return {"bytes": len(result.encode())}
    if name == "planfile.read_plan":
        return {"bytes": len(args[0].encode())}
    if name == "verifier.rasterize_coverage":
        resolution = args[3] if len(args) > 3 else kwargs.get("resolution", 0.1)
        cells = math.ceil(args[1].width_ew / resolution)
        return {"cells": cells, "cell_tests": cells * len(args[0].placements)}
    if name == "geometry.width_table":
        return {"cells": sum(len(row) for row in result),
                "err_cells": sum(v is None for row in result for v in row)}
    return None


class Tracer:
    """Wraps swathplan's public functions; holds the spans and counts they record."""

    def __init__(self, modules: dict):
        self.spans: list = []
        self.stack: list[int] = []
        self.swath_evals = 0
        self.round = -1
        self.patches = []  # (module, attribute, original, wrapper)
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "planner.swath_at":
                    self.patches.append((module, attr, fn, self._counted(fn)))
                elif name not in PER_EVALUATION:
                    wrapper = self._spanned(name, fn)
                    for other in modules.values():
                        if vars(other).get(attr) is fn:
                            self.patches.append((other, attr, fn, wrapper))

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.swath_evals += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                attrs = None if result is None else _span_attrs(name, args, kwargs, result)
                self.spans[sid] = (sid, parent, name, start, end, self.round, attrs)
        return wrapper

    def enable(self) -> None:
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)


def _per_round(spans: list, rounds: int) -> list[collections.Counter]:
    """Per traced round: total and self time of each span name, and summed counts."""
    children = collections.Counter()
    for sid, parent, name, start, end, rnd, attrs in spans:
        if parent is not None:
            children[parent] += end - start
    totals = [collections.Counter() for _ in range(rounds)]
    for sid, parent, name, start, end, rnd, attrs in spans:
        t = totals[rnd]
        t[name] += end - start
        t[name + ".self"] += end - start - children[sid]
        for key, value in (attrs or {}).items():
            if key == "cmd":
                t[f"cli.main_s.{value.replace('-', '_')}"] += end - start
            else:
                t[f"{name}.{key}"] += value
    return totals


def _import_swathplan() -> dict:
    sys.path.insert(0, str(harness.SRC))
    modules = {short: __import__(f"swathplan.{short}", fromlist=["_"]) for short in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if harness.SRC not in origin.parents:
        raise harness.Failure(f"swathplan imported from {origin}, not {harness.SRC}")
    return modules


def run(scenarios: list, launch: harness.Launcher, seconds: float, spans_path: Path) -> dict:
    t0 = time.perf_counter()
    work = launch.work
    harness.setup(scenarios, launch)
    check = harness.Checker(work)
    ops = [(sc, op) for sc in scenarios for op in harness.OPS]
    attempted = failed = 0
    metrics: dict[str, tuple[float, str]] = {}

    # Fresh processes: floors and the speed probe, import time, numpy, child CPU.
    def floor(code: str) -> float:
        return statistics.median(
            launch([], ["-c", code]).wall_s for _ in range(FLOOR_SAMPLES))

    metrics["floor.python_s"] = (floor("pass"), "s")
    metrics["floor.numpy_import_s"] = (floor("import numpy"), "s")
    metrics["floor.calibrate_s"] = (
        statistics.median(harness.probe(launch) for _ in range(FLOOR_SAMPLES)), "s")
    imports = []
    for _ in range(FLOOR_SAMPLES):
        res = launch([], ["-c", IMPORT_PROBE])
        harness.expect(res.code == 0, f"import probe exited {res.code}: {res.stderr!r}")
        imports.append(float(res.stdout))
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    cpu = collections.defaultdict(list)
    for sc, op in ops:
        res = launch(sc.argv(op, work))
        attempted += 1
        failed += not check(sc, op, res.code, res.stdout, res.stderr)
        cpu[op].append(res.cpu_s)
    for op in harness.OPS:
        res = launch(scenarios[0].argv(op, work), ["-c", MAIN_PROBE])
        harness.expect(res.code == 0, f"{op} probe exited {res.code}: {res.stderr!r}")
        key = op.replace("-", "_")
        metrics[f"cli.numpy_loaded.{key}"] = (int(json.loads(res.stdout)["numpy"]), "count")
        metrics[f"cli.process_cpu_s.{key}"] = (statistics.fmean(cpu[op]), "s")

    # In-process rounds, traced and untraced in turn.
    modules = _import_swathplan()
    cli = modules["cli"]  # looked up per call, so the wrapper runs while enabled
    tracer = Tracer(modules)

    def call(sc, op) -> None:
        nonlocal attempted, failed
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(sc.argv(op, work))
        attempted += 1
        failed += not check(sc, op, code, out.getvalue().encode(), b"")

    for sc, op in ops:  # warm-up round: first calls pay for caches filling
        call(sc, op)
    def timed_round() -> float:
        begin = time.perf_counter()
        for sc, op in ops:
            call(sc, op)
        return time.perf_counter() - begin

    traced, untraced, evals = [], [], []
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        tracer.round = len(traced)
        tracer.swath_evals = 0
        tracer.enable()
        try:
            traced.append(timed_round())
        finally:
            tracer.disable()
        evals.append(tracer.swath_evals)
        untraced.append(timed_round())

    # Peak Python-visible allocation of each verify, traced by tracemalloc.
    peak = 0
    for sc in scenarios:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(sc.argv("verify", work))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    totals = _per_round(tracer.spans, len(traced))

    def med(*keys: str) -> float:
        return statistics.median(sum(t[k] for k in keys) for t in totals)

    for op in harness.OPS:
        key = op.replace("-", "_")
        metrics[f"cli.main_s.{key}"] = (med(f"cli.main_s.{key}"), "s")
    lines, swath_evals = med("planner.plan_survey.lines"), statistics.median(evals)
    metrics.update({
        "config.load_s": (med("config.load_config", "config.apply_overrides"), "s"),
        "planner.plan_survey_s": (med("planner.plan_survey"), "s"),
        "planner.first_line_s": (med("planner.first_line_position"), "s"),
        "planner.next_line_s": (med("planner.next_line_position"), "s"),
        "planner.lines": (lines, "count"),
        "planner.swath_evals": (swath_evals, "count"),
        "planner.lines_per_swath_eval": (lines / swath_evals, "ratio"),
        "planfile.write_s": (med("planfile.write_plan_csv", "planfile.write_plan_json"), "s"),
        "planfile.read_s": (med("planfile.read_plan"), "s"),
        "planfile.bytes": (med("planfile.write_plan_csv.bytes", "planfile.write_plan_json.bytes"),
                           "bytes"),
        "verifier.rasterize_s": (med("verifier.rasterize_coverage"), "s"),
        "verifier.checks_s": (med("verifier.verify_plan.self"), "s"),
        "verifier.cells": (med("verifier.rasterize_coverage.cells"), "count"),
        "verifier.cell_tests": (med("verifier.rasterize_coverage.cell_tests"), "count"),
        "verifier.peak_alloc_mb": (peak / 2**20, "MiB"),
        "geometry.width_table_s": (med("geometry.width_table"), "s"),
        "geometry.width_cells": (med("geometry.width_table.cells"), "count"),
        "geometry.err_cells": (med("geometry.width_table.err_cells"), "count"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    })

    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, parent, name, s, e, rnd, attrs in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "round": rnd,
                                 "start_s": s - t0, "end_s": e - t0, "attrs": attrs}) + "\n")
    raw = {"traced_round_s": traced, "untraced_round_s": untraced,
           "round_totals": [dict(t) for t in totals]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw}
