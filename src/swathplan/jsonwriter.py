"""JSON text from fixed ``%`` templates: the plan, the plot-data scene, width-table rows.

Each writer prints what ``json.dumps(doc, indent=2)`` prints for its
document, without building the document: JSON writes a finite float as
``float.__repr__``, which is what ``%r`` prints. Only the commands that write
JSON import this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .planfile import RATIO_DECIMALS, require_finite_output, sig_spec
from .planner import SurveyPlan, SurveyRegion, depth_at_x

_FIRST_PLACEMENT = """\
    {
      "x_m": %r,
      "overlap_prev": null,
      "width_m": %r
    }"""
_PLACEMENT = """\
    {
      "x_m": %r,
      "overlap_prev": %r,
      "width_m": %r
    }"""
_PLAN_SUMMARY = """\
  "summary": {
    "line_count": %d,
    "total_track_nm": %r,
    "line_length_m": %r,
    "d1_m": %r
  }
}
"""
_SCENE_HEAD = """\
{
  "region": {
    "width_ew_m": %(w)r,
    "length_ns_m": %(length)r
  },
  "sea_surface_corners": [
    [
      0.0,
      0.0,
      0.0
    ],
    [
      %(w)r,
      0.0,
      0.0
    ],
    [
      %(w)r,
      %(length)r,
      0.0
    ],
    [
      0.0,
      %(length)r,
      0.0
    ]
  ],
  "seabed_corners": [
    [
      0.0,
      0.0,
      %(west)r
    ],
    [
      %(w)r,
      0.0,
      %(east)r
    ],
    [
      %(w)r,
      %(length)r,
      %(east)r
    ],
    [
      0.0,
      %(length)r,
      %(west)r
    ]
  ],
  "survey_lines": """
# x is rounded once and printed three times
_SURVEY_LINE = """\
    {
      "line": %d,
      "x_m": %s,
      "start": [
        %s,
        0.0,
        0.0
      ],
      "end": [
        %s,
        %s,
        0.0
      ]
    }"""


def _array(items: list[str]) -> str:
    """A JSON array one level into a document, from items indented two levels."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def plan_json(plan: SurveyPlan, edge_offset_d1: float, sig: int) -> str:
    """The ``placements`` rows and the ``summary`` object of a plan file.

    ``write_plan_json`` has checked that every number prints finite.
    """
    spec = sig_spec(sig)
    rows = [
        _FIRST_PLACEMENT % (float(spec % x), float(spec % width))
        if overlap is None
        else _PLACEMENT % (float(spec % x), round(overlap, RATIO_DECIMALS), float(spec % width))
        for x, width, overlap in plan.placements
    ]
    summary = _PLAN_SUMMARY % (
        plan.line_count,
        float(spec % plan.total_track_length),
        float(spec % plan.line_length),
        float(spec % edge_offset_d1),
    )
    return '{\n  "placements": ' + _array(rows) + ",\n" + summary


def plot_data_json(region: SurveyRegion, plan: SurveyPlan, sig: int) -> str:
    """Region corners and survey line segments as a JSON document.

    Raises NonFiniteOutputError when a number would print as one that reads
    back as inf or nan.
    """
    spec = sig_spec(sig)
    scene = {
        "w": region.width_ew,
        "length": region.length_ns,
        "west": -depth_at_x(region, 0.0),
        "east": -depth_at_x(region, region.width_ew),
    }
    xs = [p.x for p in plan.placements]
    require_finite_output(
        [
            ("width_ew_m", scene["w"]),
            ("length_ns_m", scene["length"]),
            ("seabed_corners", scene["west"]),
            ("seabed_corners", scene["east"]),
            ("x_m", min(xs, default=0.0)),
            ("x_m", max(xs, default=0.0)),
        ],
        sig,
    )
    scene = {key: float(spec % value) for key, value in scene.items()}
    length = repr(scene["length"])
    texts = (repr(float(spec % x)) for x in xs)
    lines = [_SURVEY_LINE % (i, x, x, x, length) for i, x in enumerate(texts, start=1)]
    return _SCENE_HEAD % scene + _array(lines) + "\n}\n"


def width_rows_json(
    rows: Iterable[tuple[float, list[float | None]]], labels: list[str], sig: int
) -> Iterator[str]:
    """JSON text of the (heading, widths) rows, one heading at a time.

    The chunks join to what ``json.dumps(doc, indent=2)`` gives for the list
    of ``{"heading_deg", "widths_m"}`` objects, ``labels`` keying the widths.
    A width whose printed value overflows the float range prints null, as a
    width that overflowed in the arithmetic does.
    """
    spec = sig_spec(sig)
    keys = [f'      "{label}": ' for label in labels]

    def template(cells: list[float | None]) -> str:
        if not keys:
            return '  {\n    "heading_deg": %r,\n    "widths_m": {}\n  }'
        widths = ",\n".join(key + ("null" if c is None else "%r") for key, c in zip(keys, cells))
        return '  {\n    "heading_deg": %r,\n    "widths_m": {\n' + widths + "\n    }\n  }"

    full = template([0.0] * len(keys))
    for i, (heading, row) in enumerate(rows):
        cells = [None if w is None else float(spec % w) for w in row]
        if math.inf in cells:
            cells = [None if c == math.inf else c for c in cells]
        if None in cells:
            text = template(cells) % (heading, *[c for c in cells if c is not None])
        else:
            text = full % (heading, *cells)
        yield ("[\n" if i == 0 else ",\n") + text
    yield "\n]\n"
