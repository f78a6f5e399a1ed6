"""Command line front end: width-table, plan, verify and plot-data.

Exit statuses: 0 success or verification pass, 1 verification failure or an
infeasible scenario, 2 usage, config or parse errors, or output that cannot
be written.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import io
import os
import sys
from collections.abc import Iterable
from itertools import chain
from typing import Any, NoReturn

from .config import ConfigError, ScenarioConfig, load_config
from .errors import PlanningError
from .planfile import (
    NonFiniteOutputError,
    PlanParseError,
    plan_summary,
    read_plan,
    sig_spec,
    width_rows_csv,
    write_plan_csv,
    write_plan_json,
)
from .planner import plan_survey


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON scenario config")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    sub.add_argument("--alpha-deg", type=float, help="bed dip angle override (deg)")
    sub.add_argument("--theta-deg", type=float, help="transducer opening angle override (deg)")
    sub.add_argument("--eta", type=float, help="target overlap fraction override")
    sub.add_argument("--center-depth-m", type=float, help="region center depth override (m)")
    sub.add_argument("--region-ew-nm", type=float, help="region east-west extent override (NM)")
    sub.add_argument("--region-ns-nm", type=float, help="region north-south extent override (NM)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swathplan",
        description="Multibeam swath widths and survey line layout over a sloped seabed.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_table = subs.add_parser("width-table", help="swath width grid over headings and distances")
    _add_common_flags(p_table)
    p_table.add_argument(
        "--headings-deg", type=_csv_floats, metavar="LIST", help="comma-separated headings (deg)"
    )
    p_table.add_argument(
        "--distances-nm", type=_csv_floats, metavar="LIST", help="comma-separated distances (NM)"
    )
    p_table.set_defaults(handler=cmd_width_table)

    p_plan = subs.add_parser("plan", help="lay out north-south survey lines")
    _add_common_flags(p_plan)
    p_plan.set_defaults(handler=cmd_plan)

    p_verify = subs.add_parser("verify", help="audit a plan file against the scenario")
    p_verify.add_argument("plan_file", metavar="PLAN", help="plan file written by 'plan'")
    _add_common_flags(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_plot = subs.add_parser("plot-data", help="emit plan and region geometry as JSON")
    _add_common_flags(p_plot)
    p_plot.set_defaults(handler=cmd_plot_data)

    return parser


# Each scenario flag (argparse dest) and the config keys it sets.
FLAG_KEYS = {
    "alpha_deg": ("seabed.slope_alpha_deg", "region.slope_alpha_deg"),
    "theta_deg": ("transducer.opening_angle_deg",),
    "eta": ("eta_target",),
    "center_depth_m": ("region.center_depth_m",),
    "region_ew_nm": ("region.width_ew_nm",),
    "region_ns_nm": ("region.length_ns_nm",),
    "format": ("format",),
    "headings_deg": ("headings_deg",),
    "distances_nm": ("distances_nm",),
}


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """The flags given become a partial config document, applied after the file."""
    overrides: dict[str, Any] = {}
    for flag, keys in FLAG_KEYS.items():
        value = getattr(args, flag, None)  # only width-table has the list flags
        if value is not None:
            for key in keys:
                section, _, name = key.rpartition(".")
                (overrides.setdefault(section, {}) if section else overrides)[name] = value
    return load_config(args.config, overrides)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to stdout or to the file at ``out``, each as it comes."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def cmd_width_table(args: argparse.Namespace, cfg: ScenarioConfig) -> int:
    """Swath width per (heading, distance) cell; failed cells print as ERR/null.

    The rows come from ``stripes.width_chunks`` in heading order, and each is
    written as it comes.
    """
    from .stripes import width_chunks  # only width-table compiles the stripes

    if cfg.format == "json":
        from .jsonwriter import width_rows_json  # only JSON output compiles the templates

        text = width_rows_json(cfg.distances_nm, cfg.precision)
    else:
        text = width_rows_csv(cfg.distances_nm, cfg.precision)
    chunks = width_chunks(cfg, text)
    try:
        _emit(chunks, args.out)
    finally:
        chunks.close()  # reaps the worker however the writing ended
    return 0


def cmd_plan(args: argparse.Namespace, cfg: ScenarioConfig) -> int:
    """Plan survey lines for the configured region and write the placement table."""
    plan = plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    d1 = cfg.region.edge_offset_d1
    if cfg.format == "json":
        body = write_plan_json(plan, d1, cfg.precision)
    else:
        body = write_plan_csv(plan, d1, cfg.precision)
    _emit([body], args.out)
    if args.out is not None:
        summary = plan_summary(plan, d1, cfg.precision)
        print(
            f"{summary['lines']} lines, {summary['total_track_nm']} NM total, "
            f"D1 = {summary['d1_m']} m"
        )
    return 0


# Findings per write of a verify report: a write per line would be a system
# call per finding on unbuffered output, one write of all of them a copy of
# the whole report.
REPORT_BATCH = 1_000


def cmd_verify(args: argparse.Namespace, cfg: ScenarioConfig) -> int:
    """Audit a plan file: raster coverage, pairwise overlap band, width ordering."""
    from .verifier import verify_plan  # a few ms to load, so only this subcommand pays

    try:
        with open(args.plan_file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise PlanParseError(f"cannot read plan file: {err}") from err
    plan = read_plan(text, cfg.region)
    result = verify_plan(plan, cfg.region, cfg.transducer, cfg.eta_min, cfg.eta_max)
    findings = result.findings
    if result.passed:
        verdict = (
            f"PASS: {plan.line_count} lines cover the region; "
            f"{len(result.report.pairwise_overlap_ratios)} adjacent pairs inside "
            f"[{cfg.eta_min:g}, {cfg.eta_max:g}] with slack\n"
        )
    else:
        verdict = f"FAIL: {len(findings)} finding(s)\n"
    batches = (
        "".join([f"finding: {finding}\n" for finding in findings[i : i + REPORT_BATCH]])
        for i in range(0, len(findings), REPORT_BATCH)
    )
    _emit(chain(batches, [verdict]), args.out)
    return 0 if result.passed else 1


def cmd_plot_data(args: argparse.Namespace, cfg: ScenarioConfig) -> int:
    """Emit region and plan geometry as JSON for external plotting; renders nothing."""
    from .jsonwriter import plot_data_json

    plan = plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    _emit([plot_data_json(cfg.region, plan, cfg.precision)], args.out)
    return 0


class _ClosedStdout(io.TextIOBase):
    """Stdout for a process started with fd 1 closed, where ``sys.stdout`` is
    None: each write fails, as a write to a full disk does."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "stdout is closed")


def _drop_unwritable_stdout() -> None:
    """Point stdout at the null device if it still cannot flush.

    Output that stdout could not write (a closed pipe, a full disk) stays
    buffered, and the interpreter's flush at exit would fail on it again,
    with a second report and status 120.
    """
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # after parsing, which sends --help to stderr then
        sys.stdout = _ClosedStdout()
    try:
        cfg = _config_from_args(args)
        code = args.handler(args, cfg)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
        return code
    except (ConfigError, PlanParseError, NonFiniteOutputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        _drop_unwritable_stdout()
        return 2
    except PlanningError as err:
        print(f"error: {err}", file=sys.stderr)
        partial = err.partial_plan
        if partial is not None:
            spec = sig_spec(cfg.precision)  # as the plan file would print them
            print(f"partial plan ({partial.line_count} lines):", file=sys.stderr)
            for p in partial.placements:
                print(f"  x={spec % p.x} m  width={spec % p.swath_width} m", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Process entry of `python -m swathplan`, `python -m swathplan.cli` and
    the `swathplan` script: run `main` on a frozen heap and exit with its status.

    Freezing keeps every collection off the objects the imports built, which
    live until the process ends anyway. Once `main` returns, the atexit hooks
    run and stdout and stderr are flushed, and then the process ends without
    the interpreter's teardown, which only frees memory the OS takes back. A
    flush that fails leaves the exit to the interpreter, which reports it as
    any exit does. `main` itself neither freezes nor exits: tests and library
    callers run it in-process.
    """
    gc.freeze()
    status = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a failed write, or a stream closed under us
        raise SystemExit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
