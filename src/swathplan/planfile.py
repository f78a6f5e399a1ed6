"""Plan file serialization: three-column CSV or a JSON document.

Both formats round numeric text to a configured number of significant
digits so that rewriting a parsed file reproduces it byte for byte.
"""

from __future__ import annotations

import json

from .planner import LinePlacement, SurveyPlan, SurveyRegion

PLAN_CSV_HEADER = "x_m,overlap_prev,width_m"
RATIO_DECIMALS = 5


class PlanParseError(ValueError):
    """Plan file rejected: wrong shape, header or field values."""


def format_sig(value: float, sig: int) -> str:
    """Significant-digit text for lengths and depths (plain %g notation)."""
    return f"{value:.{sig}g}"


def format_ratio(value: float) -> str:
    """Overlap ratios keep a fixed five decimals."""
    return f"{value:.{RATIO_DECIMALS}f}"


def plan_summary(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> dict[str, str]:
    return {
        "lines": str(plan.line_count),
        "total_track_nm": format_sig(plan.total_track_length, sig),
        "line_length_m": format_sig(plan.line_length, sig),
        "d1_m": format_sig(edge_offset_d1, sig),
    }


def write_plan_csv(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    lines = [PLAN_CSV_HEADER]
    for p in plan.placements:
        overlap = "" if p.overlap_with_previous is None else format_ratio(p.overlap_with_previous)
        lines.append(f"{format_sig(p.x, sig)},{overlap},{format_sig(p.swath_width, sig)}")
    summary = plan_summary(plan, edge_offset_d1, sig)
    lines.append("# summary: " + " ".join(f"{k}={v}" for k, v in summary.items()))
    return "\n".join(lines) + "\n"


def write_plan_json(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    doc = {
        "placements": [
            {
                "x_m": float(format_sig(p.x, sig)),
                "overlap_prev": None
                if p.overlap_with_previous is None
                else round(p.overlap_with_previous, RATIO_DECIMALS),
                "width_m": float(format_sig(p.swath_width, sig)),
            }
            for p in plan.placements
        ],
        "summary": {
            "line_count": plan.line_count,
            "total_track_nm": float(format_sig(plan.total_track_length, sig)),
            "line_length_m": float(format_sig(plan.line_length, sig)),
            "d1_m": float(format_sig(edge_offset_d1, sig)),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise PlanParseError(f"{where}: not a number: {text!r}") from err


def _rows_from_csv(text: str) -> list[tuple[float, float | None, float]]:
    rows = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != PLAN_CSV_HEADER:
                raise PlanParseError(
                    f"line {lineno}: expected header {PLAN_CSV_HEADER!r}, got {line!r}"
                )
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise PlanParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        x = _parse_float(fields[0], f"line {lineno} x_m")
        overlap = None if fields[1] == "" else _parse_float(fields[1], f"line {lineno} overlap")
        width = _parse_float(fields[2], f"line {lineno} width_m")
        rows.append((x, overlap, width))
    if not header_seen:
        raise PlanParseError("no header row found")
    return rows


def _rows_from_json(text: str) -> list[tuple[float, float | None, float]]:
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer literal too long to convert
        raise PlanParseError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("placements"), list):
        raise PlanParseError("JSON plan must be an object with a 'placements' array")
    rows = []
    for i, entry in enumerate(doc["placements"]):
        if not isinstance(entry, dict):
            raise PlanParseError(f"placement {i}: expected an object")
        try:
            x = float(entry["x_m"])
            width = float(entry["width_m"])
            overlap = entry.get("overlap_prev")
            if overlap is not None:
                overlap = float(overlap)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise PlanParseError(f"placement {i}: {err}") from err
        rows.append((x, overlap, width))
    return rows


def read_plan(text: str, region: SurveyRegion) -> SurveyPlan:
    """Parse a plan file (CSV or JSON, sniffed from the first character).

    The region supplies the line length; totals derive from the row count,
    so a hand-edited file still yields a consistent plan object.
    """
    body = text.lstrip()
    if not body:
        raise PlanParseError("empty plan file")
    rows = _rows_from_json(text) if body.startswith(("{", "[")) else _rows_from_csv(text)
    if not rows:
        raise PlanParseError("plan file has no placement rows")
    try:
        # depth is not serialized; verification recomputes it from the profile
        placements = tuple(
            LinePlacement(
                x=x, depth=float("nan"), swath_width=width, overlap_with_previous=overlap
            )
            for x, overlap, width in rows
        )
    except ValueError as err:
        raise PlanParseError(str(err)) from err
    return SurveyPlan(placements=placements, line_length=region.length_ns)
