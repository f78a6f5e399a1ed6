"""Plan files: three-column CSV or JSON, written by ``plan`` and read by ``verify``.

Every format rounds numeric text to a configured number of significant
digits so that rewriting a parsed file reproduces it byte for byte. The JSON
text comes from the fixed templates in ``jsonwriter``, and the parsers that
``read_plan`` runs live in ``planreader``. The width table's text lives in
``stripes``, so ``width-table`` never compiles this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .config import sig_spec
from .errors import NonFiniteOutputError, PlanParseError
from .geometry import SurveyPlan, SurveyRegion

PLAN_CSV_HEADER = "x_m,overlap_prev,width_m"
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
