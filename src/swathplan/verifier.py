"""Independent coverage checks for survey plans.

The audit derives each footprint from the region and the fan alone: an
outer beam tilted h = theta/2 from vertical meets a bed dipping alpha at
D tan h / (1 -+ tan h tan alpha) from the line, minus on the deep (west)
side, a ray-plane intersection that shares no arithmetic with the planner's
law of sines. The raster finds the cells a footprint holds from its two
ends, never per cell, so its time and memory grow with the line count, not
the cell count. ``verify`` feeds ``audit`` a CSV plan's rows from the file.
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

__all__ = ["CoverageReport", "VerificationResult", "audit", "rasterize_coverage", "verify_plan"]


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


def _fan(region: SurveyRegion, xdcr: TransducerSpec) -> tuple:
    """tan(alpha) and the fan's deep and shallow reach: a line at x, D(x) =
    west-edge depth - x * tan(alpha) deep, insonifies [x - D * deep, x + D *
    shallow]. A fan that grazes the bed raises."""
    half = xdcr.half_angle
    if region.slope_alpha >= 90.0 - half - GRAZING_MARGIN_DEG:
        raise BeamGrazeError(
            f"beam grazes seabed: cross-track slope {region.slope_alpha:.6g} deg at or beyond "
            f"the {90.0 - half:.6g} deg limit for a {xdcr.opening_angle_theta:g} deg opening"
        )
    ta = math.tan(math.radians(region.slope_alpha))
    th = math.tan(math.radians(half))
    return ta, th / (1.0 - th * ta), th / (1.0 + th * ta)


def audit(
    rows: Iterable[tuple],
    region: SurveyRegion,
    xdcr: TransducerSpec,
    eta_min: float,
    eta_max: float,
    ratios: list | None,
    n_cells: int = 0,
) -> tuple[int, list[str], CoverageReport]:
    """The line count, findings and coverage report of lines given as rows.

    Each row is ``(x, width, overlap)``, as a ``LinePlacement`` or a row of
    ``planreader.plan_rows`` is, taken once in plan order. Each pair's order
    and width shape is checked as its eastern line arrives; x is kept until
    every row is in (the cell size comes from the narrowest footprint, the
    easternmost line's), then two cell indices per line. Each pair's ratio
    goes to ``ratios`` when one is given, and so into the report.

    Findings: uncovered intervals, pairwise rasterized overlap ratios
    outside [eta_min - RATIO_SLACK, eta_max + RATIO_SLACK], lines out of
    strict west-to-east order, and widths that grow eastward on a sloped bed
    or differ on a flat one (printed widths round monotonically, so
    neighbours may print equal). A grazing fan or dry bed under an x raises
    once every row is read, so a refused row comes first.

    The raster tiles the region width W with n = max(ceil(W / t), 100) cells
    of W / n (or ``n_cells``). The target cell t is the finer of
    COARSEST_CELL_M and RATIO_SLACK / 2 of the narrowest footprint, but no
    finer than W * 2**-52, which keeps every cell index an exact double; a
    pair's shared extent is off by under one cell, so each ratio's raster
    error stays within half the slack. Cell i's center is (i + 0.5) * cell,
    so a footprint holds the index range [first, stop), and cell c lies in
    #(firsts <= c) - #(stops <= c) footprints: one sweep of the two sorted
    lists finds the uncovered runs and the largest multiplicity. A range
    that holds no cell is left out, so each uncovered stretch found is a
    whole run. West-to-east lines give both lists in order, which the sort
    takes in linear time; any other order takes O(lines log lines).
    """
    xs, pair_findings = [], []
    sloped = region.slope_alpha > 0.0  # else flat: a region holds 0 <= alpha < 90
    shape = "width grows eastward" if sloped else "width not constant on a flat bed"
    for x, width, _ in rows:
        if xs:  # a finding's text is formatted only for a pair that has one
            if not west_x < x:
                pair_findings.append(
                    f"lines {len(xs)}-{len(xs) + 1}: not west to east "
                    f"({west_x:.4f} -> {x:.4f} m)"
                )
            if width > west_width if sloped else width != west_width:
                pair_findings.append(
                    f"lines {len(xs)}-{len(xs) + 1}: {shape} "
                    f"({west_width:.4f} -> {width:.4f} m)"
                )
        xs.append(x)
        west_x, west_width = x, width

    ta, reach_deep, reach_shallow = _fan(region, xdcr)
    west_depth, span = region.west_edge_depth, region.width_ew
    narrowest = (west_depth - max(xs) * ta) * (reach_deep + reach_shallow) if xs else math.inf
    target = max(min(COARSEST_CELL_M, 0.5 * RATIO_SLACK * narrowest), span * 2.0**-52)
    n_cells = n_cells or max(math.ceil(span / target), 100)
    cell = span / n_cells
    band_lo, band_hi = eta_min - RATIO_SLACK, eta_max + RATIO_SLACK
    band_findings, firsts, stops = [], [], []
    for i, x in enumerate(xs):
        depth = west_depth - x * ta
        if depth <= 0.0:  # the first dry line, before the sweep reads the cells
            raise SurfacedSeabedError(f"surfaced seabed: depth {depth:.3f} m at x = {x:.3f} m")
        lo, hi = x - depth * reach_deep, x + depth * reach_shallow
        first = _centers_below(lo, cell, n_cells, False)
        stop = _centers_below(hi, cell, n_cells, True)
        extent = hi - lo
        if i:
            # footprints narrower than an ulp of x have no extent: the pair reads 0
            mean = 0.5 * (west_extent + extent)
            shared = (stop if stop < west_stop else west_stop) - (
                first if first > west_first else west_first
            )
            ratio = shared * cell / mean if shared > 0 and mean > 0.0 else 0.0
            if ratios is not None:
                ratios.append(ratio)
            if not band_lo <= ratio <= band_hi:
                band_findings.append(
                    f"lines {i}-{i + 1}: rasterized overlap {ratio:.5f} outside "
                    f"[{band_lo:.5f}, {band_hi:.5f}]"
                )
        if first < stop:  # a footprint that holds no cell changes no count
            firsts.append(first)
            stops.append(stop)
        west_first, west_stop, west_extent = first, stop, extent
    firsts.sort()
    stops.sort()
    firsts.append(n_cells)  # sentinels: no cell at n_cells is swept, so no pointer passes them
    stops.append(n_cells)
    uncovered = []
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
        elif not cover:  # n_cells * cell can round above the region width
            uncovered.append((start * cell, min(end * cell, span)))
        start = end
    findings = [f"uncovered interval [{lo:.3f}, {hi:.3f}] m" for lo, hi in uncovered]
    return (
        len(xs),
        findings + band_findings + pair_findings,
        CoverageReport(cell, tuple(uncovered), tuple(ratios or ()), max_cover),
    )


def rasterize_coverage(
    plan: SurveyPlan, region: SurveyRegion, xdcr: TransducerSpec
) -> CoverageReport:
    """``audit``'s raster coverage report of a plan: a cell is in a line's
    swath when its center lies in the footprint the region and fan give the
    line. An empty plan yields one uncovered interval spanning the region."""
    return verify_plan(plan, region, xdcr, -math.inf, math.inf).report


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
    """Pass/fail coverage audit of a plan: ``audit``'s findings and report."""
    _, findings, report = audit(plan.placements, region, xdcr, eta_min, eta_max, [])
    return VerificationResult(not findings, tuple(findings), report)
