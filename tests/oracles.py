"""Reference oracles for what the package computes and prints.

None is called by the package. ``effective_slope_numeric`` builds the
cross-track slope from explicit vectors, and ``brute_force_next_line``
grid-scans the next line's position on the audit's own footprints; both use
numpy. ``admissible_bounds`` writes out the bounds that the stay-ahead
argument for ``plan_survey``'s line count rests on, and
``decimal_greedy_count`` runs that greedy in 50-digit decimals with no ulp
nudge. ``exact_coverage`` measures, in fractions, the coverage the audit's
raster samples. The document builders
below are the writers the package had before it wrote JSON from fixed
templates: each returns the document (or, for CSV, the text) that
``json.dumps(doc, indent=2)`` turned into output. The tests hold the library
to all of them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from swathplan.geometry import TransducerSpec, _check_angles, swath_cross_section
from swathplan.planner import SurveyPlan, SurveyRegion, depth_at_x
from swathplan.verifier import _depths_and_reaches


def effective_slope_numeric(alpha_deg: float, beta_deg: float) -> float:
    """Gamma (deg) from explicit vector construction; oracle for effective_slope.

    Builds the across-track direction n3 = n1 x n2 (line direction crossed
    with the bed normal) and measures its angle to its own horizontal
    projection n4. Returns 0 by convention where a projection degenerates
    to zero length.
    """
    _check_angles(alpha_deg, beta_deg)
    a = math.radians(alpha_deg)
    b = math.radians(beta_deg)
    n1 = np.array([math.cos(b), math.sin(b), 0.0])
    n2 = np.array([math.sin(a), 0.0, math.cos(a)])
    n3 = np.cross(n1, n2)
    n4 = n3 * np.array([1.0, 1.0, 0.0])
    norm3 = float(np.linalg.norm(n3))
    norm4 = float(np.linalg.norm(n4))
    if norm3 == 0.0 or norm4 == 0.0:
        return 0.0
    cos_g = float(np.dot(n3, n4)) / (norm3 * norm4)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_g))))


def brute_force_next_line(
    region: SurveyRegion,
    xdcr: TransducerSpec,
    x_prev: float,
    eta_target: float,
    step: float = 0.01,
) -> float:
    """Grid-scan oracle for the planner's next-line solve.

    Walks candidates x_prev + k*step downward from the far end of the
    bracket (one previous-line width east) and returns the first whose
    achieved overlap reaches eta_target. Widths come from the audit's own
    footprints, so the oracle shares nothing with the planner's solver path.
    Agreement with the closed form is within one step.
    """
    if step <= 0.0:
        raise ValueError(f"scan step must be positive, got {step}")
    if not 0.0 < eta_target < 1.0:
        raise ValueError(f"overlap target must be in (0, 1), got {eta_target}")
    (depth_prev,), reach_deep, reach_shallow = _depths_and_reaches(region, xdcr, [x_prev])
    a = math.radians(region.slope_alpha)
    # the planner spaces lines on bed-measured widths: footprints over cos(alpha)
    k_width = (reach_deep + reach_shallow) / math.cos(a)
    w_prev = depth_prev * k_width
    n = int(math.floor(w_prev / step + 1e-12))
    if n < 1:
        raise ValueError(
            f"no solution in bracket: scan step {step:g} m exceeds the "
            f"{w_prev:g} m bracket"
        )
    xs = x_prev + np.arange(1, n + 1) * step
    depths = depth_prev - (xs - x_prev) * math.tan(a)
    widths = depths * k_width
    etas = 1.0 - (xs - x_prev) / (0.5 * (w_prev + widths))
    hits = np.nonzero((depths > 0.0) & (etas >= eta_target))[0]
    if hits.size == 0:
        raise ValueError(
            f"no solution in bracket: no candidate reaches overlap {eta_target:g}"
        )
    # etas fall with x, so the last ascending hit is the first one met
    # when walking down from the far end
    return float(xs[hits[-1]])


def admissible_bounds(region: SurveyRegion, xdcr: TransducerSpec, eta_target: float):
    """The bounds an admissible plan keeps, each line against the one before.

    Returns ``(x1_max, g, shallow_edge)``: the easternmost first line whose
    deep edge is at or west of the west boundary; the map from a line at x
    to the easternmost next line whose bed overlap with it is at least
    ``eta_target``, g(x) = x + f * D(x) / (1 + f * tan(alpha) / 2) with
    f = (1 - eta) * K; and the map from a line to its shallow edge's
    horizontal position. The law-of-sines halves are written out here, so
    nothing is shared with the planner but the region's fields.
    """
    half, a = math.radians(xdcr.half_angle), math.radians(region.slope_alpha)
    k_deep = math.sin(half) / math.cos(half + a)  # sin(90 - half - alpha) = cos(half + alpha)
    k_shallow = math.sin(half) / math.cos(half - a)
    t = math.tan(a)
    west_depth = region.center_depth + 0.5 * region.width_ew * t
    k = k_deep * math.cos(a)
    free = (1.0 - eta_target) * (k_deep + k_shallow)

    def depth(x: float) -> float:
        return west_depth - x * t

    def g(x: float) -> float:
        return x + free * depth(x) / (1.0 + 0.5 * free * t)

    def shallow_edge(x: float) -> float:
        return x + k_shallow * math.cos(a) * depth(x)

    return west_depth * k / (1.0 + k * t), g, shallow_edge


def decimal_greedy_count(
    region: SurveyRegion, xdcr: TransducerSpec, eta_target: float, max_lines: int
) -> int | float:
    """Lines of the greedy plan worked in 50-digit decimals; inf past ``max_lines``.

    The greedy of ``plan_survey``'s docstring with no ulp nudge: the first
    line at x_1 = D_w * k / (1 + k * t), each next one at the whole step
    g(x) = x + f * D(x) / (1 + f * t / 2), until a line's shallow edge
    x + k_s * cos(alpha) * D(x) is at or east of the east boundary. The
    unit-depth halves k_d and k_s (from ``swath_cross_section``), t =
    tan(alpha), D_w, the width and eta are the floats the planner reads,
    each taken exactly; cos(alpha) is 1 / sqrt(1 + t**2), and
    k = k_d * cos(alpha), f = (1 - eta) * (k_d + k_s).
    """
    unit = swath_cross_section(1.0, region.slope_alpha, xdcr)
    with localcontext() as ctx:
        ctx.prec = 50
        k_d, k_s, t = Decimal(unit.half_deep), Decimal(unit.half_shallow), Decimal(region.tan_alpha)
        west_depth, width = Decimal(region.west_edge_depth), Decimal(region.width_ew)
        cos_a = 1 / (1 + t * t).sqrt()
        k, reach = k_d * cos_a, k_s * cos_a
        free = (1 - Decimal(eta_target)) * (k_d + k_s)
        x = west_depth * k / (1 + k * t)
        for lines in range(1, max_lines + 1):
            depth = west_depth - x * t
            if x + reach * depth >= width:
                return lines
            x += free * depth / (1 + free * t / 2)
    return math.inf


def exact_coverage(footprints, width: float) -> tuple[list, list, int]:
    """The coverage the audit's raster samples, in exact arithmetic.

    ``footprints`` are the (west end, east end) floats of each line's
    horizontal footprint, in line order, as the audit computes them; each
    end is taken as the Fraction it is. A footprint holds its ends. Returns

    - the gaps: the maximal stretches of [0, width] that no footprint
      holds, as (start, end) Fractions, open where they meet a footprint;
    - each adjacent pair's ratio: the extent inside [0, width] that both
      footprints hold over the mean of their two lengths (0 where the mean
      is 0);
    - the most footprints that hold any one point of [0, width].
    """
    w = Fraction(width)
    spans = [(Fraction(lo), Fraction(hi)) for lo, hi in footprints]
    ratios = []
    for (lo_w, hi_w), (lo_e, hi_e) in zip(spans, spans[1:]):
        shared = min(hi_w, hi_e, w) - max(lo_w, lo_e, 0)
        mean = ((hi_w - lo_w) + (hi_e - lo_e)) / 2
        ratios.append(shared / mean if shared > 0 and mean > 0 else Fraction(0))
    inside = sorted((max(lo, 0), min(hi, w)) for lo, hi in spans if lo <= w and hi >= 0)
    gaps, reach = [], Fraction(-1)  # reach: the east end of the union so far
    for lo, hi in inside:
        if lo > max(reach, 0):
            gaps.append((max(reach, 0), lo))
        reach = max(reach, hi)
    if reach < w:
        gaps.append((max(reach, 0), w))
    # a point holds every footprint that starts at or before it and ends at or after it
    events = sorted([(lo, 0) for lo, _ in inside] + [(hi, 1) for _, hi in inside])
    held = most = 0
    for _, end in events:
        held += -1 if end else 1
        most = max(most, held)
    return gaps, ratios, most


def _num(value: float, sig: int) -> float:
    return float(f"{value:.{min(sig, 767)}g}")


def plan_json_document(plan: SurveyPlan, d1: float, sig: int) -> dict:
    """The document ``write_plan_json`` prints."""
    return {
        "placements": [
            {
                "x_m": _num(p.x, sig),
                "overlap_prev": None
                if p.overlap_with_previous is None
                else round(p.overlap_with_previous, 5),
                "width_m": _num(p.swath_width, sig),
            }
            for p in plan.placements
        ],
        "summary": {
            "line_count": plan.line_count,
            "total_track_nm": _num(plan.total_track_length, sig),
            "line_length_m": _num(plan.line_length, sig),
            "d1_m": _num(d1, sig),
        },
    }


def plan_csv_text(plan: SurveyPlan, d1: float, sig: int) -> str:
    """The text ``write_plan_csv`` prints, three format calls per row."""
    spec = f".{min(sig, 767)}g"
    lines = ["x_m,overlap_prev,width_m"]
    for p in plan.placements:
        overlap = "" if p.overlap_with_previous is None else f"{p.overlap_with_previous:.5f}"
        lines.append(f"{p.x:{spec}},{overlap},{p.swath_width:{spec}}")
    summary = {
        "lines": str(plan.line_count),
        "total_track_nm": f"{plan.total_track_length:{spec}}",
        "line_length_m": f"{plan.line_length:{spec}}",
        "d1_m": f"{d1:{spec}}",
    }
    lines.append("# summary: " + " ".join(f"{k}={v}" for k, v in summary.items()))
    return "\n".join(lines) + "\n"


def plot_data_document(region: SurveyRegion, plan: SurveyPlan, sig: int) -> dict:
    """The document ``plot-data`` prints."""
    w, length = region.width_ew, region.length_ns
    corners_xy = [(0.0, 0.0), (w, 0.0), (w, length), (0.0, length)]
    return {
        "region": {"width_ew_m": _num(w, sig), "length_ns_m": _num(length, sig)},
        "sea_surface_corners": [[_num(x, sig), _num(y, sig), 0.0] for x, y in corners_xy],
        "seabed_corners": [
            [_num(x, sig), _num(y, sig), _num(-depth_at_x(region, x), sig)]
            for x, y in corners_xy
        ],
        "survey_lines": [
            {
                "line": i + 1,
                "x_m": _num(p.x, sig),
                "start": [_num(p.x, sig), 0.0, 0.0],
                "end": [_num(p.x, sig), _num(length, sig), 0.0],
            }
            for i, p in enumerate(plan.placements)
        ],
    }


def width_rows_document(rows: list, labels: list[str], sig: int) -> list[dict]:
    """The document JSON ``width-table`` prints for (heading, widths) rows."""
    return [
        {
            "heading_deg": heading,
            "widths_m": {
                label: None if w is None else _num(w, sig) for label, w in zip(labels, row)
            },
        }
        for heading, row in rows
    ]
