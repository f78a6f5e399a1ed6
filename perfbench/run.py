"""swathplan benchmark: CLI turnaround per subcommand, checked against a closed form.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src`` directory.  One client runs a closed loop: every timed
operation is a fresh ``python -m swathplan <subcommand>`` process, started
only after the previous one has exited.  A round is every scenario of the
workload through ``plan``, ``verify``, ``width-table`` and ``plot-data``;
a run repeats whole rounds until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the same rounds run in-process with
spans around every public function of each module (see ``tracing.py``) and
the per-layer metrics are printed instead.  Every output is checked against
``oracle.py``, which imports nothing from swathplan.  Raw samples and spans
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    MIN_ROUNDS, OPS, OUT, PROBE_REF_S, SETUP_REPS, SRC, WORKLOADS, Checker, Failure, Launcher,
    Scenario, probe, setup,
)


def run_untraced(scenarios: list[Scenario], launch: Launcher, seconds: float) -> dict:
    """Time set-up and whole rounds of launches, with a speed probe after each.

    Each time is divided by the mean of the two probes that bracket it and
    multiplied by PROBE_REF_S (see calibrate.py), so that a change in the
    machine's speed during or between runs cancels out.
    """
    work = launch.work
    probes = [probe(launch)]

    def scaled(wall_s: float) -> float:
        probes.append(probe(launch))
        return wall_s / (0.5 * (probes[-2] + probes[-1])) * PROBE_REF_S

    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        setup(scenarios, launch)
        setups.append(scaled(time.perf_counter() - start))

    check = Checker(work)
    wall: dict[tuple[str, str], list[float]] = {}
    rss: dict[tuple[str, str], list[float]] = {}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for sc in scenarios:
            for op in OPS:
                res = launch(sc.argv(op, work))
                attempted += 1
                failed += not check(sc, op, res.code, res.stdout, res.stderr)
                wall.setdefault((sc.name, op), []).append(scaled(res.wall_s))
                rss.setdefault((sc.name, op), []).append(res.rss_mb)
        rounds += 1

    def per_op(samples: dict[tuple[str, str], list[float]], op: str) -> float:
        """Mean over the round's scenarios of each scenario's median."""
        return statistics.fmean(statistics.median(samples[(sc.name, op)]) for sc in scenarios)

    metrics = {"setup_s": (statistics.median(setups), "s")}
    for op in OPS:
        metrics[f"{op.replace('-', '_')}_s"] = (per_op(wall, op), "s")
    for op in ("plan", "verify", "width-table"):
        metrics[f"{op.replace('-', '_')}_rss_mb"] = (per_op(rss, op), "MiB")
    raw = {"rounds": rounds, "probe_s": probes, "setups_scaled_s": setups,
           "wall_scaled_s": {f"{k[0]}/{k[1]}": v for k, v in wall.items()},
           "rss_mb": {f"{k[0]}/{k[1]}": v for k, v in rss.items()}}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swathplan" / "cli.py").is_file():
        print(f"error: no swathplan sources under {SRC}", file=sys.stderr)
        return 2

    scenarios = WORKLOADS[args.workload](random.Random(args.seed))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    correct = True
    try:
        with Launcher(work) as launch:
            if args.trace:
                import tracing  # only the traced run loads the tracing code

                result = tracing.run(scenarios, launch, args.seconds, OUT / (
                    f"spans-{args.workload}-seed{args.seed}.jsonl"))
            else:
                result = run_untraced(scenarios, launch, args.seconds)
    except Failure as err:
        print(f"error: wrong output: {err}", file=sys.stderr)
        correct = False
        result = {"attempted": 1, "failed": 0, "metrics": {}, "raw": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "raw": result["raw"]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
