"""JSON text from ``%`` templates: the plan, the plot-data scene, width-table rows.

Each writer prints what ``json.dumps(doc, indent=2)`` prints for its
document, without building the document: JSON writes a finite float as
``float.__repr__``, which is what ``%r`` prints. One rule, ``_layout``, lays
out every template from the shape of its document, once at import. Only the
commands that write JSON import this module, and each writer imports what
only its own command loads (the planner, the plan files) when it runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from .config import ConfigError, sig_spec
from .geometry import SurveyPlan, SurveyRegion

if TYPE_CHECKING:
    from .stripes import WidthText


def _layout(shape: str | list | dict, pad: str) -> str:
    """``shape`` as ``json.dumps(shape, indent=2)`` lays it out ``pad`` deep.

    A shape nests dicts and lists of raw strings, each printed as it is: a
    JSON literal, a ``%`` conversion or text already laid out one level in.
    Keys print in quotes, unescaped.
    """
    if isinstance(shape, str):
        return shape
    inner = pad + "  "
    if isinstance(shape, dict):
        pair, items = "{}", [f'"{key}": {_layout(value, inner)}' for key, value in shape.items()]
    else:
        pair, items = "[]", [_layout(item, inner) for item in shape]
    if not items:
        return pair
    # the indent rides in the separator, so each item is copied once
    body = (",\n" + inner).join(items)
    return f"{pair[0]}\n{inner}{body}\n{pad}{pair[1]}"


# Marks where the items of a document's long array go: the writers put
# them in by concatenation, a chunk at a time, never by a ``%`` of the
# whole text.
_HOLE = "\0"


def _document(shape: list | dict) -> list[str]:
    """The text of a whole document, ended by a newline, cut at its holes."""
    return (_layout(shape, "") + "\n").split(_HOLE)


def _corners(west: str, east: str) -> list[list[str]]:
    """The region's four corners at the given depths, west edge first."""
    return [
        ["0.0", "0.0", west],
        ["%(w)r", "0.0", east],
        ["%(w)r", "%(length)r", east],
        ["0.0", "%(length)r", west],
    ]


_FIRST_PLACEMENT, _PLACEMENT = (
    _layout({"x_m": "%r", "overlap_prev": overlap, "width_m": "%r"}, "    ")
    for overlap in ("null", "%r")
)
_PLAN_HEAD, _PLAN_TAIL = _document(
    {
        "placements": f"[{_HOLE}]",
        "summary": dict(line_count="%d", total_track_nm="%r", line_length_m="%r", d1_m="%r"),
    }
)
_SCENE_HEAD, _SCENE_TAIL = _document(
    {
        "region": {"width_ew_m": "%(w)r", "length_ns_m": "%(length)r"},
        "sea_surface_corners": _corners("0.0", "0.0"),
        "seabed_corners": _corners("%(west)r", "%(east)r"),
        "survey_lines": f"[{_HOLE}]",
    }
)
# x is rounded once and printed three times
_SURVEY_LINE = _layout(
    {"line": "%d", "x_m": "%s", "start": ["%s", "0.0", "0.0"], "end": ["%s", "%s", "0.0"]}, "    "
)
# the width table is one array, streamed a row at a time
_ROWS_OPEN, _ROWS_NEXT, _ROWS_CLOSE = _document([_HOLE, _HOLE])
# an array's items one level in, as ``chunks.batched`` takes what goes
# around them: before the first, between two and after the last
_ITEMS = _layout([_HOLE, _HOLE], "  ").strip("[]").split(_HOLE)


def plan_json(plan: SurveyPlan, summary: dict[str, str], sig: int) -> Iterator[str]:
    """The ``placements`` rows and the ``summary`` object of a plan file, in chunks.

    ``summary`` holds the texts ``plan_summary`` rounded and checked.
    """
    from .chunks import batched
    from .planfile import RATIO_DECIMALS

    spec = sig_spec(sig)
    rows = (
        _FIRST_PLACEMENT % (float(spec % x), float(spec % width))
        if overlap is None
        else _PLACEMENT % (float(spec % x), round(overlap, RATIO_DECIMALS), float(spec % width))
        for x, width, overlap in plan.placements
    )
    # the summary's texts as the numbers JSON prints; the line count as an int
    tail = _PLAN_TAIL % tuple(map(float, summary.values()))
    return batched(_PLAN_HEAD, rows, tail, _ITEMS)


def plot_data_json(region: SurveyRegion, plan: SurveyPlan, sig: int) -> Iterator[str]:
    """Region corners and survey line segments as JSON, in chunks.

    Raises NonFiniteOutputError, before any text is made, as ``finite_texts``
    says.
    """
    from .chunks import batched
    from .planfile import extremes, finite_texts
    from .planner import depth_at_x

    spec = sig_spec(sig)
    printed = finite_texts(
        [
            ("width_ew_m", region.width_ew),
            ("length_ns_m", region.length_ns),
            ("seabed_corners", -depth_at_x(region, 0.0)),
            ("seabed_corners", -depth_at_x(region, region.width_ew)),
            *extremes(plan)[:2],  # the x column: plot-data prints no width
        ],
        sig,
    )
    scene = dict(zip(("w", "length", "west", "east"), map(float, printed)))
    length = repr(scene["length"])
    texts = (repr(float(spec % p.x)) for p in plan.placements)
    lines = (_SURVEY_LINE % (i, x, x, x, length) for i, x in enumerate(texts, start=1))
    return batched(_SCENE_HEAD % scene, lines, _SCENE_TAIL, _ITEMS)


def width_rows_json(distances_nm: list[float], sig: int) -> WidthText:
    """JSON text of a width table, one heading at a time.

    The head, the rows' texts in order and the tail join to what
    ``json.dumps(doc, indent=2)`` gives for the list of ``{"heading_deg",
    "widths_m"}`` objects, the printed distances keying the widths. A row's
    cell holding None is null, and its printable widths fill the others.

    Raises ConfigError, before any text is made, when two distances print
    alike, since they would share one key.
    """
    spec = sig_spec(sig)
    labels = [spec % d for d in distances_nm]
    first_with: dict[str, float] = {}
    for dist, label in zip(distances_nm, labels):
        if label in first_with:
            raise ConfigError(
                f"distances_nm {first_with[label]!r} and {dist!r} both print as "
                f"{label!r}, and JSON width keys must differ"
            )
        first_with[label] = dist

    def template(cells: list[float | None]) -> str:
        widths = {label: "null" if c is None else "%r" for label, c in zip(labels, cells)}
        return _layout({"heading_deg": "%r", "widths_m": widths}, "  ")

    full = template([0.0] * len(labels))

    def row_text(i: int, heading: float, row: list[float | None], widths: list[float]) -> str:
        text = (full if widths is row else template(row)) % (
            heading, *[float(spec % w) for w in widths]
        )
        return (_ROWS_NEXT if i else _ROWS_OPEN) + text

    return "", row_text, _ROWS_CLOSE
