"""Document text: plan files (three-column CSV or JSON) and the CSV width table.

Every format rounds numeric text to a configured number of significant
digits so that rewriting a parsed file reproduces it byte for byte. The JSON
text comes from the fixed templates in ``jsonwriter``, and the parsers that
``read_plan`` runs live in ``planreader``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

from .planner import LinePlacement, SurveyPlan, SurveyRegion

PLAN_CSV_HEADER = "x_m,overlap_prev,width_m"
RATIO_DECIMALS = 5
# A width table's text: its head, the text of row i from (i, heading, widths)
# with None where no width was computed, and its tail
WidthText = tuple[str, Callable[[int, float, list[float | None]], str], str]
# No double has more than 767 significant digits and %g drops trailing zeros,
# so a larger precision prints the same text, only from a bigger buffer.
MAX_SIG_DIGITS = 767


class PlanParseError(ValueError):
    """Plan file rejected: wrong shape, header or field values."""


class NonFiniteOutputError(ValueError):
    """A number the output would print does not read back as a finite float."""


def sig_spec(sig: int) -> str:
    """The %-format that prints every number but the overlap to ``sig`` digits (plain %g)."""
    return f"%.{min(sig, MAX_SIG_DIGITS)}g"


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
    ]
    if plan.placements:
        # one pass, with no column copied out of the plan
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
        fields += [("x_m", x_lo), ("x_m", x_hi), ("width_m", w_lo), ("width_m", w_hi)]
    total, length, d1, *_ = finite_texts(fields, sig)
    return dict(lines=str(plan.line_count), total_track_nm=total, line_length_m=length, d1_m=d1)


def write_plan_csv(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    """The plan as CSV rows plus a ``# summary:`` line; refused as ``plan_summary`` says."""
    summary = plan_summary(plan, edge_offset_d1, sig)
    spec = sig_spec(sig)
    first = f"{spec},,{spec}\n"  # no overlap on the westmost line
    row = f"{spec},%.{RATIO_DECIMALS}f,{spec}\n"
    rows = [
        first % (x, width) if overlap is None else row % (x, overlap, width)
        for x, width, overlap in plan.placements
    ]
    tail = "# summary: " + " ".join(f"{k}={v}" for k, v in summary.items()) + "\n"
    return PLAN_CSV_HEADER + "\n" + "".join(rows) + tail


def write_plan_json(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    """The plan as a JSON document of ``placements`` and ``summary``; refused as CSV is."""
    from .jsonwriter import plan_json  # only JSON output compiles the templates

    return plan_json(plan, plan_summary(plan, edge_offset_d1, sig), sig)


def printable_widths(
    row: list[float | None], spec: str
) -> tuple[list[float | None], list[float]]:
    """The row with None (ERR or null) for each width that cannot print, and
    the widths that can, in order; both are ``row`` itself when all can.

    A width cannot print when none was computed or when its text at ``spec``
    reads back as inf. Widths are positive and rounding is monotone, so one
    format of the greatest width clears a whole row.
    """
    widths = [w for w in row if w is not None] if None in row else row
    if not widths or math.isfinite(float(spec % max(widths))):
        return row, widths
    row = [None if w is None or not math.isfinite(float(spec % w)) else w for w in row]
    return row, [w for w in row if w is not None]


def width_rows_csv(distances_nm: list[float], sig: int) -> WidthText:
    """CSV text of a width table: the header, then one % operation per row."""
    spec = sig_spec(sig)
    full_row = ",".join([spec] * len(distances_nm))

    def row_text(i: int, heading: float, row: list[float | None]) -> str:
        row, widths = printable_widths(row, spec)
        if widths is row:
            template = full_row
        else:
            template = ",".join("ERR" if w is None else spec for w in row)
        return spec % heading + "," + template % tuple(widths) + "\n"

    return "heading_deg," + ",".join([spec % d for d in distances_nm]) + "\n", row_text, ""


def read_plan(text: str, region: SurveyRegion) -> SurveyPlan:
    """Parse a plan file (CSV or JSON, sniffed from the first character).

    The region supplies the line length; totals derive from the row count,
    so a hand-edited file still yields a consistent plan object.
    """
    from .planreader import rows_from_csv, rows_from_json  # only a plan read compiles the parsers

    body = text.lstrip()
    if not body:
        raise PlanParseError("empty plan file")
    rows = rows_from_json(text) if body.startswith(("{", "[")) else rows_from_csv(text)
    if not rows:
        raise PlanParseError("plan file has no placement rows")
    placements = []
    for where, x, overlap, width in rows:
        try:
            placements.append(LinePlacement(x, width, overlap))
        except ValueError as err:
            raise PlanParseError(f"{where}: {err}") from err
    return SurveyPlan(placements=tuple(placements), line_length=region.length_ns)
