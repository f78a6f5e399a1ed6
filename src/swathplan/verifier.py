"""Independent coverage checks for survey plans.

The audit derives each footprint from the region and the fan alone: an
outer beam tilted h = theta/2 from vertical meets a bed dipping alpha at
D tan h / (1 -+ tan h tan alpha) from the line, minus on the deep (west)
side, a ray-plane intersection that shares no arithmetic with the planner's
law of sines. The raster finds the cells a footprint holds from its two
ends, never per cell, so its time and memory grow with the line count, not
the cell count.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import BeamGrazeError, SurfacedSeabedError
from .geometry import SurveyPlan, SurveyRegion, TransducerSpec

COARSEST_CELL_M = 0.1

# Slack on the pairwise ratio band: absorbs the bed-measured vs horizontal
# convention gap near the reference scenario plus raster quantization.
RATIO_SLACK = 0.005

GRAZING_MARGIN_DEG = 1e-9  # the planner's, so the audit refuses the fans it refuses


class CoverageReport(NamedTuple):
    """Raster coverage summary for one plan.

    Attributes
    ----------
    resolution : float
        Cell size (m) of the raster, W / n for the n cells that tile the
        region width W.
    uncovered_intervals : tuple of (x_start, x_end)
        Gaps inside the region, in meters east of the west boundary.
    pairwise_overlap_ratios : tuple of float
        Per adjacent line pair: rasterized shared extent divided by the
        mean of the two footprint interval lengths.
    max_multiplicity : int
        Largest number of swaths covering any single cell.
    """

    resolution: float
    uncovered_intervals: tuple[tuple[float, float], ...]
    pairwise_overlap_ratios: tuple[float, ...]
    max_multiplicity: int


class VerificationResult(NamedTuple):
    """Outcome of verify_plan: overall verdict plus human-readable findings."""

    passed: bool
    findings: tuple[str, ...]
    report: CoverageReport


def _depths_and_reaches(region: SurveyRegion, xdcr: TransducerSpec, xs: list) -> tuple:
    """Depths D under lines at xs and the fan's deep and shallow reach.

    D(x) = west-edge depth - x * tan(alpha), and a line at x insonifies
    [x - D * deep reach, x + D * shallow reach]. Dry bed under an x raises.
    """
    half = xdcr.half_angle
    if region.slope_alpha >= 90.0 - half - GRAZING_MARGIN_DEG:
        raise BeamGrazeError(
            f"beam grazes seabed: cross-track slope {region.slope_alpha:.6g} deg at or beyond "
            f"the {90.0 - half:.6g} deg limit for a {xdcr.opening_angle_theta:g} deg opening"
        )
    ta = math.tan(math.radians(region.slope_alpha))
    depths = [region.west_edge_depth - x * ta for x in xs]
    for x, depth in zip(xs, depths):
        if depth <= 0.0:
            raise SurfacedSeabedError(f"surfaced seabed: depth {depth:.3f} m at x = {x:.3f} m")
    th = math.tan(math.radians(half))
    return depths, th / (1.0 - th * ta), th / (1.0 + th * ta)


def rasterize_coverage(
    plan: SurveyPlan, region: SurveyRegion, xdcr: TransducerSpec
) -> CoverageReport:
    """Measure coverage of a plan on a raster of cell centers.

    A cell belongs to a line's swath when its center lies inside the line's
    horizontal footprint, derived here from the region and the fan rather
    than trusted from the plan. An empty plan yields one uncovered interval
    spanning the whole region.

    The raster tiles the region width W with n = max(ceil(W / t), 100)
    cells of W / n, so the last center lies half a cell inside the east
    edge. The target cell t is the finer of COARSEST_CELL_M and
    RATIO_SLACK / 2 of the narrowest footprint, but no finer than W * 2**-52,
    which keeps every cell index an exact double. A pair's rasterized
    shared extent is off by under one cell, so t keeps each ratio's raster
    error within half the slack.
    """
    xs = [p.x for p in plan.placements]
    depths, reach_deep, reach_shallow = _depths_and_reaches(region, xdcr, xs)
    narrowest = min(depths, default=math.inf) * (reach_deep + reach_shallow)
    width = region.width_ew
    target = max(min(COARSEST_CELL_M, 0.5 * RATIO_SLACK * narrowest), width * 2.0**-52)
    footprints = ((x - d * reach_deep, x + d * reach_shallow) for x, d in zip(xs, depths))
    return _raster(footprints, width, max(math.ceil(width / target), 100))


def _raster(
    footprints: Iterable[tuple[float, float]], width: float, n_cells: int
) -> CoverageReport:
    """Coverage of footprints (lo, hi), in line order, on n_cells cells tiling [0, width].

    Cell i's center is (i + 0.5) * cell and the centers ascend, so the cells
    with lo <= center <= hi are an index range [first, stop), and lo <= hi
    gives first <= stop. Each line keeps only its first and its stop: a
    pair's ratio is taken as its eastern line arrives, from the western
    line's range and extent. Cell c then lies in #(firsts <= c) - #(stops <= c)
    footprints, so one sweep of the two lists, each sorted, finds the
    uncovered runs and the largest multiplicity. Ranges that hold no cell
    are left out, so no end lies inside an uncovered run, and each
    uncovered stretch the sweep finds is a whole run. A west-to-east plan
    gives both lists already ascending, which the sort takes in linear
    time; any other order takes O(lines log lines) and gives the same report.
    """
    cell = width / n_cells
    firsts, stops, ratios = [], [], []
    west_extent = None
    for lo, hi in footprints:
        first = _centers_below(lo, cell, n_cells, inclusive=False)
        stop = _centers_below(hi, cell, n_cells, inclusive=True)
        extent = hi - lo
        if west_extent is not None:
            # footprints narrower than an ulp of x have no extent: the pair reads 0
            mean = 0.5 * (west_extent + extent)
            shared = (stop if stop < west_stop else west_stop) - (
                first if first > west_first else west_first
            )
            ratios.append(shared * cell / mean if shared > 0 and mean > 0.0 else 0.0)
        if first < stop:  # a footprint that holds no cell changes no count
            firsts.append(first)
            stops.append(stop)
        west_first, west_stop, west_extent = first, stop, extent
    firsts.sort()
    stops.sort()
    firsts.append(n_cells)  # sentinels: no cell at n_cells is swept, so no pointer passes them
    stops.append(n_cells)
    runs = []  # uncovered cell runs [start, end)
    cover = max_cover = i = j = start = 0
    while start < n_cells:  # cells [start, end) share one count
        while firsts[i] <= start:
            cover += 1
            i += 1
        while stops[j] <= start:
            cover -= 1
            j += 1
        end = firsts[i] if firsts[i] < stops[j] else stops[j]
        if cover > max_cover:
            max_cover = cover
        elif not cover:
            runs.append((start, end))
        start = end
    return CoverageReport(
        resolution=cell,
        # n_cells * cell can round above width
        uncovered_intervals=tuple((start * cell, min(end * cell, width)) for start, end in runs),
        pairwise_overlap_ratios=tuple(ratios),
        max_multiplicity=max_cover,
    )


def _centers_below(x: float, resolution: float, n_cells: int, inclusive: bool) -> int:
    """Number of cell centers (i + 0.5) * resolution below x (at or below if inclusive).

    x / resolution + 0.5 lands within a cell of the answer k, and mostly on
    it: when the very doubles (k -+ 0.5) * resolution, the centers beside
    k, bracket x, k is returned at once. Otherwise the fix-up steps k, from
    the guess clamped to [0, n_cells], past the centers' doubles one at a
    time, so the count is exact however the division rounded.
    """
    guess = x / resolution + 0.5
    if 0.0 < guess < n_cells:  # finite, so int() cannot raise, and k + 0.5 is exact
        k = int(guess)
        below, above = (k - 0.5) * resolution, (k + 0.5) * resolution
        if (below <= x < above) if inclusive else (below < x <= above):
            return k
    k = math.floor(min(max(guess, 0.0), n_cells))  # clamped first: floor(inf) raises
    while k > 0:
        center = (k - 1 + 0.5) * resolution
        if center < x or (inclusive and center == x):
            break
        k -= 1
    while k < n_cells:
        center = (k + 0.5) * resolution
        if center > x or (center == x and not inclusive):
            break
        k += 1
    return k


def verify_plan(
    plan: SurveyPlan,
    region: SurveyRegion,
    xdcr: TransducerSpec,
    eta_min: float,
    eta_max: float,
) -> VerificationResult:
    """Pass/fail coverage audit of a plan.

    Fails on any uncovered interval, any pairwise rasterized overlap ratio
    outside [eta_min - RATIO_SLACK, eta_max + RATIO_SLACK], lines out of
    strict west-to-east order, or bed-measured widths that break the bed's
    shape: on a sloped bed they must not grow eastward, on a flat bed they
    must all be equal. A plan file rounds widths to its printed digits, and
    rounding is monotone, so neighbours on a gentle slope may print equal
    widths but never growing ones. The raster is rasterize_coverage's.
    """
    report = rasterize_coverage(plan, region, xdcr)
    findings = []
    for lo, hi in report.uncovered_intervals:
        findings.append(f"uncovered interval [{lo:.3f}, {hi:.3f}] m")
    band_lo, band_hi = eta_min - RATIO_SLACK, eta_max + RATIO_SLACK
    for i, ratio in enumerate(report.pairwise_overlap_ratios):
        if not band_lo <= ratio <= band_hi:
            findings.append(
                f"lines {i + 1}-{i + 2}: rasterized overlap {ratio:.5f} outside "
                f"[{band_lo:.5f}, {band_hi:.5f}]"
            )
    sloped, flat = region.slope_alpha > 0.0, region.slope_alpha == 0.0
    # a finding's text is formatted only for a pair that has one
    for i, (west, east) in enumerate(zip(plan.placements, plan.placements[1:])):
        if not west.x < east.x:
            findings.append(
                f"lines {i + 1}-{i + 2}: not west to east ({west.x:.4f} -> {east.x:.4f} m)"
            )
        if sloped and east.swath_width > west.swath_width:
            shape = "width grows eastward"
        elif flat and east.swath_width != west.swath_width:
            shape = "width not constant on a flat bed"
        else:
            continue
        findings.append(
            f"lines {i + 1}-{i + 2}: {shape} "
            f"({west.swath_width:.4f} -> {east.swath_width:.4f} m)"
        )
    return VerificationResult(passed=not findings, findings=tuple(findings), report=report)
