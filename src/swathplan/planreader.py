"""The plan file parsers: the rows of a CSV or JSON plan, each field checked.

``plan_rows`` takes a plan file's lines, as iterating an open file gives
them, and yields each row as ``(x, width, overlap)`` in ``LinePlacement``'s
order. A CSV plan is read a line at a time, so ``verify`` audits it
straight from the file; a JSON plan is parsed whole. The "line N x_m" text
that names a row or a field is made only when it is refused.

Only ``planfile.read_plan`` and the ``verify`` handler import this module,
when they run, so only a command that reads a plan compiles it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from .chunks import PLAN_CSV_HEADER
from .errors import PlanParseError
from .geometry import LinePlacement


def plan_rows(lines: Iterable[str]) -> Iterator[tuple]:
    """The rows of a plan file's lines, each line with its end.

    The format is sniffed from the first character that is not whitespace:
    ``{`` or ``[`` is JSON, anything else CSV. A file with no such character
    is refused, and so is one with no row; both before the first row is
    returned. Any other refusal comes as the rows are read, at the first
    refused row.
    """
    lines = iter(lines)
    head = []
    for line in lines:
        head.append(line)
        if not line.isspace():
            break
    else:
        raise PlanParseError("empty plan file")
    if line.lstrip().startswith(("{", "[")):
        rows = _json_rows("".join(chain(head, lines)))
    else:
        rows = _csv_rows(chain(head, lines))
    first = next(rows, None)
    if first is None:
        raise PlanParseError("plan file has no placement rows")
    return chain((first,), rows)


def _parse_float(text: str, lineno: int, name: str) -> float:
    """The number in field ``name`` of line ``lineno``, which only a refusal names."""
    # float() would also read " 76.6 ", "5_82.517" and non-ASCII digits
    if text != text.strip() or "_" in text or not text.isascii():
        raise PlanParseError(f"line {lineno} {name}: not a number: {text!r}")
    try:
        return float(text)
    except ValueError as err:
        raise PlanParseError(f"line {lineno} {name}: not a number: {text!r}") from err


def _placement(line: str, lineno: int) -> LinePlacement:
    """The placement on stripped data line ``lineno``, or the refusal that names its fault."""
    fields = line.split(",")
    if len(fields) != 3:
        raise PlanParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
    x = _parse_float(fields[0], lineno, "x_m")
    overlap = None if fields[1] == "" else _parse_float(fields[1], lineno, "overlap")
    width = _parse_float(fields[2], lineno, "width_m")
    try:
        return LinePlacement(x, width, overlap)
    except ValueError as err:
        raise PlanParseError(f"line {lineno}: {err}") from err


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple]:
    """The rows of a CSV plan's lines, numbered as ``str.splitlines`` numbers the text.

    A line of printable ASCII with no space or "_" is one line of the text,
    already stripped, and ``float`` reads each of its fields only as the
    file's rules allow: such a row is checked once a line and read with a
    ``float`` call per field. Every other line (the header, blanks and
    comments, any refused row, and lines holding whitespace, "_", non-ASCII
    text or a line break other than "\\n") is split as ``str.splitlines``
    splits it, and each part is stripped and read field by field.
    """
    header_seen = False
    shift = 0  # lines str.splitlines finds beyond one per line of ``lines``
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if (
            header_seen
            and line.isascii()
            and line.isprintable()
            and " " not in line
            and "_" not in line
        ):
            try:
                x, overlap, width = line.split(",")
                x, width = float(x), float(width)
                overlap = float(overlap) if overlap else None
            except ValueError:
                pass
            else:
                # x - x is nan when x is infinite or nan
                if x - x == 0.0 == width - width and (overlap is None or 0.0 <= overlap <= 1.0):
                    yield x, width, overlap
                    continue
        for lineno, part in enumerate(raw.splitlines(), start=number + shift):
            line = part.strip()
            if not line or line.startswith("#"):
                continue
            if header_seen:
                yield _placement(line, lineno)
            elif line == PLAN_CSV_HEADER:
                header_seen = True
            else:
                raise PlanParseError(
                    f"line {lineno}: expected header {PLAN_CSV_HEADER!r}, got {line!r}"
                )
        shift = lineno - number
    if not header_seen:
        raise PlanParseError("no header row found")


def _json_float(value: object, key: str) -> float:
    # float() would also read true as 1.0 and the string " 76.6 " as 76.6
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        import json

        raise TypeError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def _json_rows(text: str) -> Iterator[LinePlacement]:
    import json

    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer literal too long to convert, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise PlanParseError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("placements"), list):
        raise PlanParseError("JSON plan must be an object with a 'placements' array")
    for i, entry in enumerate(doc["placements"]):
        if not isinstance(entry, dict):
            raise PlanParseError(f"placement {i}: expected an object")
        try:
            x = _json_float(entry["x_m"], "x_m")
            width = _json_float(entry["width_m"], "width_m")
            overlap = entry.get("overlap_prev")
            if overlap is not None:
                overlap = _json_float(overlap, "overlap_prev")
            placement = LinePlacement(x, width, overlap)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise PlanParseError(f"placement {i}: {err}") from err
        yield placement
