"""The four command handlers: width-table, plan, verify and plot-data.

``cli.main`` imports this module once the command line has parsed and the
config has loaded, so help, usage errors and config errors never compile it.
Each handler imports the modules its command runs when it runs, so a launch
compiles only its own command's code: ``width-table`` never the planner or
the plan files, ``verify`` never the planner or the plan writers, ``plan``
never the audit or the parsers.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from typing import Any

from .config import ScenarioConfig
from .errors import PlanParseError


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to stdout or to the file at ``out``, each as it comes."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def cmd_width_table(given: dict[str, Any], cfg: ScenarioConfig) -> int:
    """Swath width per (heading, distance) cell; failed cells print as ERR/null.

    The rows come from ``stripes.width_chunks`` in heading order, and each is
    written as it comes.
    """
    from .stripes import width_chunks, width_rows_csv  # only width-table compiles the stripes

    if cfg.format == "json":
        from .jsonwriter import width_rows_json  # only JSON output compiles the templates

        text = width_rows_json(cfg.distances_nm, cfg.precision)
    else:
        text = width_rows_csv(cfg.distances_nm, cfg.precision)
    chunks = width_chunks(cfg, text)
    try:
        _emit(chunks, given.get("--out"))
    finally:
        chunks.close()  # reaps the worker however the writing ended
    return 0


def cmd_plan(given: dict[str, Any], cfg: ScenarioConfig) -> int:
    """Plan survey lines for the configured region and write the placement table.

    The summary is rounded and checked once, before any text is written, so
    a refused plan writes nothing.
    """
    from .planfile import plan_csv as writer, plan_summary
    from .planner import plan_survey

    plan = plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    summary = plan_summary(plan, cfg.region.edge_offset_d1, cfg.precision)
    if cfg.format == "json":
        from .jsonwriter import plan_json as writer  # only JSON output compiles the templates
    _emit(writer(plan, summary, cfg.precision), given.get("--out"))
    if given.get("--out") is not None:
        print(
            f"{summary['lines']} lines, {summary['total_track_nm']} NM total, "
            f"D1 = {summary['d1_m']} m"
        )
    return 0


def cmd_verify(given: dict[str, Any], cfg: ScenarioConfig) -> int:
    """Audit a plan file: raster coverage, pairwise overlap band, width ordering.

    A CSV plan's rows go from the open file into the audit a line at a time,
    so neither the file's text nor a placement per line is held; a JSON
    plan is parsed whole. A fault refuses the file when the read reaches
    it, and the file is decoded 8 KiB at a time: a refused row comes before
    a byte that is not UTF-8 in a later block.
    """
    from .chunks import batched
    from .planreader import plan_rows
    from .verifier import audit  # a few ms to load, so only this subcommand pays

    try:
        with open(given["PLAN"], encoding="utf-8") as fh:
            lines, findings, _ = audit(
                plan_rows(fh), cfg.region, cfg.transducer, cfg.eta_min, cfg.eta_max, None
            )
    except (OSError, UnicodeDecodeError) as err:
        raise PlanParseError(f"cannot read plan file: {err}") from err
    if findings:
        verdict = f"FAIL: {len(findings)} finding(s)\n"
    else:
        verdict = (
            f"PASS: {lines} lines cover the region; {lines - 1} adjacent pairs inside "
            f"[{cfg.eta_min:g}, {cfg.eta_max:g}] with slack\n"
        )
    texts = (f"finding: {finding}\n" for finding in findings)
    _emit(batched("", texts, verdict), given.get("--out"))
    return 1 if findings else 0


def cmd_plot_data(given: dict[str, Any], cfg: ScenarioConfig) -> int:
    """Emit region and plan geometry as JSON for external plotting; renders nothing."""
    from .jsonwriter import plot_data_json
    from .planner import plan_survey

    plan = plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    _emit(plot_data_json(cfg.region, plan, cfg.precision), given.get("--out"))
    return 0
