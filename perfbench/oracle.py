"""Closed-form reference answers for swathplan's outputs.

Imports nothing from ``swathplan``: every expected value here comes from the
planar-bed geometry written out directly, so the benchmark can tell a wrong
answer from a fast one.

Frame and conventions follow the program's documentation: x is metres east
of the west boundary, the deep side is west, depths are positive, widths are
measured on the bed and footprints are their horizontal projections.

* ``layout`` places lines in closed form.  With depth affine in x, the first
  line's deep edge on the west boundary solves a linear equation,
  x0 = D_w*k_d*cos(a) / (1 + k_d*cos(a)*tan(a)), and so does each spacing that
  holds the bed-measured overlap eta,
  step = (1-eta)*K*D / (1 + (1-eta)*K*tan(a)/2).
* ``coverage_verdict`` rebuilds each line's horizontal footprint from its x,
  finds the uncovered stretches and the pairwise overlap ratios exactly, and
  says what a correct raster audit at a given cell size must conclude.
* ``width_cells`` evaluates
  W = D*sin(t/2)*(1/sin(90-t/2-g) + 1/sin(90-t/2+g)), tan(g) = |sin(b)|*tan(a),
  and marks a cell ERR where D <= 0 or the deep outer beam grazes the bed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

METERS_PER_NM = 1852.0
MAX_LINES = 1_000_000


@dataclass(frozen=True)
class Line:
    x: float  # m east of the west boundary
    depth: float  # m
    width: float  # bed-measured total swath width, m


@dataclass(frozen=True)
class Verdict:
    gaps: tuple[tuple[float, float], ...]  # uncovered stretches holding a cell centre
    ratios: tuple[float, ...]  # shared cell centres * resolution / mean footprint
    ratios_in_band: bool
    widths_ok: bool

    @property
    def passed(self) -> bool:
        return not self.gaps and self.ratios_in_band and self.widths_ok


def _factors(alpha_deg: float, theta_deg: float) -> tuple[float, float]:
    """(k_d, k_s): deep and shallow half-swath bed lengths per metre of depth."""
    half = math.radians(theta_deg / 2.0)
    a = math.radians(alpha_deg)
    if math.pi / 2.0 - half - a <= 0.0:
        raise ValueError("deep outer beam grazes the bed")
    return (
        math.sin(half) / math.sin(math.pi / 2.0 - half - a),
        math.sin(half) / math.sin(math.pi / 2.0 - half + a),
    )


def west_depth(width_ew: float, center_depth: float, alpha_deg: float) -> float:
    return center_depth + 0.5 * width_ew * math.tan(math.radians(alpha_deg))


def layout(
    width_ew: float, center_depth: float, alpha_deg: float, theta_deg: float, eta: float
) -> list[Line]:
    """Greedy west-to-east layout in closed form; stops once the east edge is reached."""
    k_d, k_s = _factors(alpha_deg, theta_deg)
    k = k_d + k_s
    c, t = math.cos(math.radians(alpha_deg)), math.tan(math.radians(alpha_deg))
    d_w = west_depth(width_ew, center_depth, alpha_deg)
    if d_w - width_ew * t <= 0.0:
        raise ValueError("seabed surfaces inside the region")
    x = d_w * k_d * c / (1.0 + k_d * c * t)
    lines = []
    while True:
        depth = d_w - x * t
        lines.append(Line(x, depth, k * depth))
        if x + k_s * depth * c >= width_ew:
            return lines
        if len(lines) >= MAX_LINES:
            raise ValueError(f"more than {MAX_LINES} lines")
        x += (1.0 - eta) * k * depth / (1.0 + (1.0 - eta) * k * t / 2.0)


def coverage_verdict(
    xs: list[float],
    widths: list[float],
    width_ew: float,
    center_depth: float,
    alpha_deg: float,
    theta_deg: float,
    eta_min: float,
    eta_max: float,
    resolution: float = 0.1,
    slack: float = 0.005,
) -> Verdict:
    """What a correct audit of lines at ``xs`` must conclude.

    The footprints are exact intervals; the audit samples them at cell
    centres (i + 0.5) * resolution.  A gap counts when it holds a centre.  A
    pair's ratio is the number of centres both footprints hold, times the
    resolution, over the mean footprint length, and must lie in
    [eta_min - slack, eta_max + slack].  Bed widths must shrink strictly west
    to east on a sloped bed and stay equal on a flat one.
    """
    k_d, k_s = _factors(alpha_deg, theta_deg)
    c, t = math.cos(math.radians(alpha_deg)), math.tan(math.radians(alpha_deg))
    d_w = west_depth(width_ew, center_depth, alpha_deg)
    spans = []
    for x in xs:
        depth = d_w - x * t
        spans.append((x - k_d * depth * c, x + k_s * depth * c))

    n_cells = math.ceil(width_ew / resolution)

    def first_centre(lo: float, closed: bool) -> int:
        """Index of the first cell centre at (closed) or past (open) ``lo``."""
        i = max(0, math.floor(lo / resolution - 0.5))
        while (i + 0.5) * resolution < lo or (not closed and (i + 0.5) * resolution == lo):
            i += 1
        return i

    gaps = []
    reach = -resolution  # west of the first centre
    for lo, hi in sorted(spans) + [(math.inf, math.inf)]:
        i = first_centre(reach, closed=False)
        if i < n_cells and (i + 0.5) * resolution < lo:
            gaps.append((max(reach, 0.0), min(lo, width_ew)))
        reach = max(reach, hi)

    band_lo, band_hi = eta_min - slack, eta_max + slack
    ratios = []
    for (w_lo, w_hi), (e_lo, e_hi) in zip(spans, spans[1:]):
        shared = max(0, min(first_centre(w_hi, closed=False), n_cells) - first_centre(e_lo, True))
        ratios.append(shared * resolution / (0.5 * ((w_hi - w_lo) + (e_hi - e_lo))))
    in_band = all(band_lo <= r <= band_hi for r in ratios)

    pairs = list(zip(widths, widths[1:]))
    if alpha_deg > 0.0:
        widths_ok = all(east < west for west, east in pairs)
    else:
        widths_ok = all(east == west for west, east in pairs)
    return Verdict(tuple(gaps), tuple(ratios), in_band, widths_ok)


def width_cells(
    reference_depth: float,
    alpha_deg: float,
    theta_deg: float,
    headings_deg: list[float],
    distances_m: list[float],
) -> list[list[float | None]]:
    """Total bed width for every (heading, distance); None marks an ERR cell."""
    half = math.radians(theta_deg / 2.0)
    ta = math.tan(math.radians(alpha_deg))
    rows = []
    for beta in headings_deg:
        b = math.radians(beta)
        g = math.atan(abs(math.sin(b)) * ta)
        grazes = math.pi / 2.0 - half - g <= 0.0
        factor = None if grazes else math.sin(half) * (
            1.0 / math.sin(math.pi / 2.0 - half - g) + 1.0 / math.sin(math.pi / 2.0 - half + g)
        )
        slope = math.cos(b) * ta
        row = []
        for dist in distances_m:
            depth = reference_depth + dist * slope
            row.append(None if factor is None or depth <= 0.0 else depth * factor)
        rows.append(row)
    return rows


def agrees(text: str, value: float, sig: int = 6) -> bool:
    """True when ``text`` is ``value`` printed to ``sig`` significant digits."""
    try:
        printed = float(text)
    except ValueError:
        return False
    if value == 0.0:
        return printed == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(value))) - sig + 1)
    return abs(printed - value) <= 0.5 * unit * (1.0 + 1e-9) + 1e-12 * abs(value)
