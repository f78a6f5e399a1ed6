"""The plan file parsers: the placements of a CSV or JSON plan, each field checked.

Each row becomes its ``LinePlacement`` as it is read. The "line N x_m" text
that names a row or a field is made only when it is refused.

Only ``planfile.read_plan`` imports this module, when it is called, so only
a command that reads a plan compiles it.
"""

from __future__ import annotations

from .geometry import LinePlacement
from .planfile import PLAN_CSV_HEADER, PlanParseError


def _parse_float(text: str, lineno: int, name: str) -> float:
    """The number in field ``name`` of line ``lineno``, which only a refusal names."""
    # float() would also read " 76.6 ", "5_82.517" and non-ASCII digits
    if text != text.strip() or "_" in text or not text.isascii():
        raise PlanParseError(f"line {lineno} {name}: not a number: {text!r}")
    try:
        return float(text)
    except ValueError as err:
        raise PlanParseError(f"line {lineno} {name}: not a number: {text!r}") from err


def placements_from_csv(text: str) -> list[LinePlacement]:
    placements = []
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
        x = _parse_float(fields[0], lineno, "x_m")
        overlap = None if fields[1] == "" else _parse_float(fields[1], lineno, "overlap")
        width = _parse_float(fields[2], lineno, "width_m")
        try:
            placements.append(LinePlacement(x, width, overlap))
        except ValueError as err:
            raise PlanParseError(f"line {lineno}: {err}") from err
    if not header_seen:
        raise PlanParseError("no header row found")
    return placements


def _json_float(value: object, key: str) -> float:
    # float() would also read true as 1.0 and the string " 76.6 " as 76.6
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        import json

        raise TypeError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def placements_from_json(text: str) -> list[LinePlacement]:
    import json

    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer literal too long to convert, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise PlanParseError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("placements"), list):
        raise PlanParseError("JSON plan must be an object with a 'placements' array")
    placements = []
    for i, entry in enumerate(doc["placements"]):
        if not isinstance(entry, dict):
            raise PlanParseError(f"placement {i}: expected an object")
        try:
            x = _json_float(entry["x_m"], "x_m")
            width = _json_float(entry["width_m"], "width_m")
            overlap = entry.get("overlap_prev")
            if overlap is not None:
                overlap = _json_float(overlap, "overlap_prev")
            placements.append(LinePlacement(x, width, overlap))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise PlanParseError(f"placement {i}: {err}") from err
    return placements
