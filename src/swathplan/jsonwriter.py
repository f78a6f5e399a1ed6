"""JSON text from fixed ``%`` templates: the plan, the plot-data scene, width-table rows.

Each writer prints what ``json.dumps(doc, indent=2)`` prints for its
document, without building the document: JSON writes a finite float as
``float.__repr__``, which is what ``%r`` prints. Only the commands that write
JSON import this module.
"""

from __future__ import annotations

from collections.abc import Iterator

from .config import ConfigError
from .planfile import RATIO_DECIMALS, WidthRows, finite_texts, printable_widths, sig_spec
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


def plan_json(plan: SurveyPlan, summary: dict[str, str], sig: int) -> str:
    """The ``placements`` rows and the ``summary`` object of a plan file.

    ``summary`` holds the texts ``plan_summary`` rounded and checked.
    """
    spec = sig_spec(sig)
    rows = [
        _FIRST_PLACEMENT % (float(spec % x), float(spec % width))
        if overlap is None
        else _PLACEMENT % (float(spec % x), round(overlap, RATIO_DECIMALS), float(spec % width))
        for x, width, overlap in plan.placements
    ]
    tail = _PLAN_SUMMARY % (
        plan.line_count,
        float(summary["total_track_nm"]),
        float(summary["line_length_m"]),
        float(summary["d1_m"]),
    )
    return '{\n  "placements": ' + _array(rows) + ",\n" + tail


def plot_data_json(region: SurveyRegion, plan: SurveyPlan, sig: int) -> str:
    """Region corners and survey line segments as JSON; refused as ``finite_texts`` says."""
    spec = sig_spec(sig)
    xs = [p.x for p in plan.placements]
    printed = finite_texts(
        [
            ("width_ew_m", region.width_ew),
            ("length_ns_m", region.length_ns),
            ("seabed_corners", -depth_at_x(region, 0.0)),
            ("seabed_corners", -depth_at_x(region, region.width_ew)),
            ("x_m", min(xs, default=0.0)),
            ("x_m", max(xs, default=0.0)),
        ],
        sig,
    )
    scene = dict(zip(("w", "length", "west", "east"), map(float, printed)))
    length = repr(scene["length"])
    texts = (repr(float(spec % x)) for x in xs)
    lines = [_SURVEY_LINE % (i, x, x, x, length) for i, x in enumerate(texts, start=1)]
    return _SCENE_HEAD % scene + _array(lines) + "\n}\n"


def width_rows_json(rows: WidthRows, distances_nm: list[float], sig: int) -> Iterator[str]:
    """JSON text of the (heading, widths) rows, one heading at a time.

    The chunks join to what ``json.dumps(doc, indent=2)`` gives for the list
    of ``{"heading_deg", "widths_m"}`` objects, the printed distances keying
    the widths. A width that cannot print (``printable_widths``) is null.

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
    return _width_chunks(rows, [f'      "{label}": ' for label in labels], spec)


def _width_chunks(rows: WidthRows, keys: list[str], spec: str) -> Iterator[str]:
    def template(cells: list[float | None]) -> str:
        if not keys:
            return '  {\n    "heading_deg": %r,\n    "widths_m": {}\n  }'
        widths = ",\n".join(key + ("null" if c is None else "%r") for key, c in zip(keys, cells))
        return '  {\n    "heading_deg": %r,\n    "widths_m": {\n' + widths + "\n    }\n  }"

    full = template([0.0] * len(keys))
    for i, (heading, row) in enumerate(rows):
        row, widths = printable_widths(row, spec)
        text = (full if widths is row else template(row)) % (
            heading, *[float(spec % w) for w in widths]
        )
        yield ("[\n" if i == 0 else ",\n") + text
    yield "\n]\n"
