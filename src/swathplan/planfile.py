"""Plan files: three-column CSV or JSON, written by ``plan`` and read by ``verify``.

Every format rounds numeric text to a configured number of significant
digits so that rewriting a parsed file reproduces it byte for byte. The JSON
text comes from the fixed templates in ``jsonwriter``. The parsers live in
``planreader``: ``verify`` runs them on the open file and never compiles
this module, and ``read_plan`` builds a plan object from their rows. The
width table's text lives in ``stripes``, so ``width-table`` never compiles
this module either. A plan and a plot-data scene are written a chunk of
rows at a time (``chunks.batched``), so no command holds the whole text.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .chunks import PLAN_CSV_HEADER, batched
from .config import sig_spec
from .errors import NonFiniteOutputError
from .geometry import LinePlacement, SurveyPlan, SurveyRegion

RATIO_DECIMALS = 5


def finite_texts(fields: Iterable[tuple[str, float]], sig: int) -> list[str]:
    """The text of each (name, value) at ``sig`` digits.

    Raises NonFiniteOutputError when one reads back as inf or nan: a value
    near the largest double can round up past it ("2e+308" at one digit),
    and JSON has no text for infinity. Rounding is monotone, so a column is
    checked by its least and greatest value alone.
    """
    spec = sig_spec(sig)
    texts = []
    for name, value in fields:
        text = spec % value
        if not math.isfinite(float(text)):
            raise NonFiniteOutputError(
                f"{name} does not print as a finite number: "
                f"{value!r} at precision {sig} prints as {text!r}"
            )
        texts.append(text)
    return texts


def plan_summary(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> dict[str, str]:
    """The summary texts both plan formats print, each rounded once.

    Raises NonFiniteOutputError when any number the plan file prints would
    read back as inf or nan.
    """
    fields = [
        ("total_track_nm", plan.total_track_length),
        ("line_length_m", plan.line_length),
        ("d1_m", edge_offset_d1),
        *extremes(plan),
    ]
    total, length, d1, *_ = finite_texts(fields, sig)
    return dict(lines=str(plan.line_count), total_track_nm=total, line_length_m=length, d1_m=d1)


def extremes(plan: SurveyPlan) -> list[tuple[str, float]]:
    """The least and greatest x, then width, as ``finite_texts`` fields; none
    for a plan with no lines. One pass, with no column copied out of the plan."""
    if not plan.placements:
        return []
    x_lo = x_hi = plan.placements[0].x
    w_lo = w_hi = plan.placements[0].swath_width
    for x, width, _ in plan.placements:
        if x < x_lo:
            x_lo = x
        elif x > x_hi:
            x_hi = x
        if width < w_lo:
            w_lo = width
        elif width > w_hi:
            w_hi = width
    return [("x_m", x_lo), ("x_m", x_hi), ("width_m", w_lo), ("width_m", w_hi)]


def plan_csv(plan: SurveyPlan, summary: dict[str, str], sig: int) -> Iterator[str]:
    """The plan as CSV rows plus a ``# summary:`` line, in chunks of rows.

    ``summary`` holds the texts ``plan_summary`` rounded and checked.
    """
    spec = sig_spec(sig)
    first = f"{spec},,{spec}\n"  # no overlap on the westmost line
    row = f"{spec},%.{RATIO_DECIMALS}f,{spec}\n"
    rows = (
        first % (x, width) if overlap is None else row % (x, overlap, width)
        for x, width, overlap in plan.placements
    )
    tail = "# summary: " + " ".join(f"{k}={v}" for k, v in summary.items()) + "\n"
    return batched(PLAN_CSV_HEADER + "\n", rows, tail)


def write_plan_csv(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    """The CSV plan file's text; refused as ``plan_summary`` says."""
    return "".join(plan_csv(plan, plan_summary(plan, edge_offset_d1, sig), sig))


def write_plan_json(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    """The JSON plan file's text: ``placements`` and ``summary``; refused as CSV is."""
    from .jsonwriter import plan_json  # only JSON output compiles the templates

    return "".join(plan_json(plan, plan_summary(plan, edge_offset_d1, sig), sig))


def read_plan(text: str, region: SurveyRegion) -> SurveyPlan:
    """Parse a plan file (CSV or JSON, sniffed from the first character).

    The region supplies the line length; totals derive from the row count,
    so a hand-edited file still yields a consistent plan object. The rows
    come from ``planreader.plan_rows``, which ``verify`` feeds straight from
    the file into the audit.
    """
    from .planreader import plan_rows  # only a read compiles the parsers

    rows = plan_rows(text.splitlines(keepends=True))
    return SurveyPlan(tuple(LinePlacement(*row) for row in rows), region.length_ns)
