"""Plan files: three-column CSV or JSON, written by ``plan`` and read by ``verify``.

Every format rounds numeric text to a configured number of significant
digits so that rewriting a parsed file reproduces it byte for byte. The JSON
text comes from the fixed templates in ``jsonwriter``, and the parsers that
``read_plan`` runs live in ``planreader``. The width table's text lives in
``stripes``, so ``width-table`` never compiles this module. A plan, a
plot-data scene and a ``verify`` report are written a chunk of rows at a
time (``batched``), so no command holds the whole text.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

from .config import sig_spec
from .errors import NonFiniteOutputError, PlanParseError
from .geometry import SurveyPlan, SurveyRegion

PLAN_CSV_HEADER = "x_m,overlap_prev,width_m"
RATIO_DECIMALS = 5
# Rows per chunk of a plan file, a plot-data scene or a verify report. A
# write per row would be a system call per row on unbuffered output, and one
# write of all of them a copy of the whole text. A chunk of 100 rows is
# 4-20 KB of text, less than the planner holds in passing, so the largest
# plans peak at the planner's own placements.
ROWS_PER_CHUNK = 100


def batched(
    head: str, texts: Iterable[str], tail: str, around: Sequence[str] = ("", "", "")
) -> Iterator[str]:
    """``head``, the texts and ``tail``, ``ROWS_PER_CHUNK`` texts a chunk.

    The head goes out with the first chunk of texts, the tail after the
    last. ``around`` holds what goes before the first text, between two and
    after the last; none of it goes in when there are no texts, as a JSON
    array prints ``[]``. The texts are taken as the chunks are, so a lazy
    ``texts`` holds one chunk's rows at a time.
    """
    first, sep, last = around
    texts, lead, end = iter(texts), head + first, head
    while batch := list(islice(texts, ROWS_PER_CHUNK)):
        yield lead + sep.join(batch)
        lead, end = sep, last
    yield end + tail


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
    so a hand-edited file still yields a consistent plan object.
    """
    from .planreader import placements_from_csv, placements_from_json  # only a read compiles them

    body = text.lstrip()
    if not body:
        raise PlanParseError("empty plan file")
    reader = placements_from_json if body.startswith(("{", "[")) else placements_from_csv
    placements = reader(text)
    if not placements:
        raise PlanParseError("plan file has no placement rows")
    return SurveyPlan(placements=tuple(placements), line_length=region.length_ns)
