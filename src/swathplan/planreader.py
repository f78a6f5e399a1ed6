"""The plan file parsers: the rows of a CSV or JSON plan, each field checked.

``plan_rows`` takes a plan file's lines and yields each row as
``(x, width, overlap)`` in ``LinePlacement``'s order. A plan's lines are
the lines a text file gives: "\\n", "\\r\\n" or "\\r" ends a line, and no
other character does. ``verify`` iterates the open file and ``read_plan``
an ``io.StringIO(text, newline=None)``, which splits a text as the file
does. A CSV plan is read a line at a time, so ``verify`` audits it
straight from the file; a JSON plan is parsed whole. The "line N x_m"
text that names a row or a field is made only when it is refused.

Only ``planfile.read_plan`` and the ``verify`` handler import this module,
when they run, so only a command that reads a plan compiles it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from typing import NoReturn

from .chunks import PLAN_CSV_HEADER
from .errors import PlanParseError
from .geometry import LinePlacement


def plan_rows(lines: Iterable[str]) -> Iterator[tuple]:
    """The rows of a plan file's lines, each line with its "\\n" end.

    One byte order mark, which a spreadsheet's "CSV UTF-8" starts with, is
    dropped. The format is sniffed from the first character that is not
    whitespace: ``{`` or ``[`` is JSON, anything else CSV. A file with no
    such character is refused, and so is one with no row; both before the
    first row is returned. Any other refusal comes as the rows are read, at
    the first refused row.
    """
    lines = iter(lines)
    head = []
    for line in lines:
        if not head:
            line = line.removeprefix("\ufeff")
        head.append(line)
        if line.strip():
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


def _refusal(line: str, lineno: int) -> NoReturn:
    """Raise the error that names the fault of refused data line ``lineno``, stripped."""
    fields = line.split(",")
    if len(fields) != 3:
        raise PlanParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
    x = _parse_float(fields[0], lineno, "x_m")
    overlap = None if fields[1] == "" else _parse_float(fields[1], lineno, "overlap")
    width = _parse_float(fields[2], lineno, "width_m")
    try:
        LinePlacement(x, width, overlap)
    except ValueError as err:
        raise PlanParseError(f"line {lineno}: {err}") from err
    raise AssertionError(f"line {lineno}: the row test refused a placement")


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple]:
    """The rows of a CSV plan's lines, each line numbered, stripped and read once.

    A data line is a row when it is printable ASCII with no space or "_"
    and its three fields read with one ``float`` call each as finite x and
    width and an empty or [0, 1] overlap. This is the only test that
    accepts a row. Blank lines and "#" comments are skipped, and any other
    line after the header is refused by ``_refusal``, which names its fault.
    """
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
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
        if not line or line.startswith("#"):
            continue
        if header_seen:
            _refusal(line, lineno)
        elif line == PLAN_CSV_HEADER:
            header_seen = True
        else:
            raise PlanParseError(
                f"line {lineno}: expected header {PLAN_CSV_HEADER!r}, got {line!r}"
            )
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
