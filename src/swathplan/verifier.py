"""Independent coverage checks for survey plans, and the numpy oracles.

The raster path rebuilds every line's horizontal footprint from the depth
profile and measures coverage on a 1-D grid of cell centers spanning the
east-west extent. The grid-scan solver below shares no arithmetic with the
planner's closed-form placement, and the vector construction of the
cross-track slope none with geometry's closed form; each exists so the two
sides can catch each other lying. This is the only module that needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionInBracketError, SurfacedSeabedError
from .geometry import TransducerSpec, _check_angles, horizontal_footprint
from .planner import DepthProfile, SurveyPlan, SurveyRegion, derive_profile, swath_at

DEFAULT_RESOLUTION_M = 0.1

# Slack on the pairwise ratio band: absorbs the bed-measured vs horizontal
# convention gap near the reference scenario plus raster quantization.
RATIO_SLACK = 0.005


@dataclass(frozen=True)
class CoverageReport:
    """Raster coverage summary for one plan.

    Attributes
    ----------
    resolution : float
        Cell size (m) of the raster.
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


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verify_plan: overall verdict plus human-readable findings."""

    passed: bool
    findings: tuple[str, ...]
    report: CoverageReport


def rasterize_coverage(
    plan: SurveyPlan,
    region: SurveyRegion,
    xdcr: TransducerSpec,
    resolution: float = DEFAULT_RESOLUTION_M,
) -> CoverageReport:
    """Measure coverage of a plan on a raster of cell centers.

    A cell belongs to a line's swath when its center lies inside the line's
    horizontal footprint [x - proj_deep, x + proj_shallow], recomputed here
    from the depth profile rather than trusted from the plan. An empty plan
    yields one uncovered interval spanning the whole region.
    """
    if resolution <= 0.0 or resolution > region.width_ew / 100.0:
        raise ValueError(
            f"resolution must be in (0, {region.width_ew / 100.0:g}] m, got {resolution:g}"
        )
    profile = derive_profile(region)
    n_cells = int(math.ceil(region.width_ew / resolution))
    centers = (np.arange(n_cells) + 0.5) * resolution
    footprints = []
    for placement in plan.placements:
        section = swath_at(profile, xdcr, placement.x)
        proj_deep, proj_shallow = horizontal_footprint(section, profile.slope_alpha)
        footprints.append((placement.x - proj_deep, placement.x + proj_shallow))
    masks = [(centers >= lo) & (centers <= hi) for lo, hi in footprints]
    cover = np.zeros(n_cells, dtype=np.int32)
    for mask in masks:
        cover += mask
    ratios = []
    for (m_west, m_east), (f_west, f_east) in zip(
        zip(masks, masks[1:]), zip(footprints, footprints[1:])
    ):
        shared = float(np.count_nonzero(m_west & m_east)) * resolution
        mean_extent = 0.5 * ((f_west[1] - f_west[0]) + (f_east[1] - f_east[0]))
        ratios.append(shared / mean_extent)
    return CoverageReport(
        resolution=resolution,
        uncovered_intervals=tuple(_zero_runs(cover, resolution, region.width_ew)),
        pairwise_overlap_ratios=tuple(ratios),
        max_multiplicity=int(cover.max()) if n_cells else 0,
    )


def _zero_runs(cover: np.ndarray, resolution: float, width_ew: float) -> list[tuple[float, float]]:
    """Contiguous uncovered cell runs as (start, end) intervals in meters."""
    gaps = (cover == 0).astype(np.int8)
    edges = np.diff(np.concatenate(([0], gaps, [0])))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]  # exclusive cell index
    return [
        (float(s * resolution), float(min(e * resolution, width_ew)))
        for s, e in zip(starts, ends)
    ]


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
    profile: DepthProfile,
    xdcr: TransducerSpec,
    x_prev: float,
    eta_target: float,
    step: float = 0.01,
) -> float:
    """Grid-scan oracle for the planner's next-line solve.

    Walks candidates x_prev + k*step downward from the far end of the
    bracket (one previous-line width east) and returns the first whose
    achieved overlap reaches eta_target. All geometry is recomputed inline
    from the law of sines so the oracle shares nothing with the planner's
    solver path. Agreement with the closed form is within one step.
    """
    if step <= 0.0:
        raise ValueError(f"scan step must be positive, got {step}")
    if not 0.0 < eta_target < 1.0:
        raise ValueError(f"overlap target must be in (0, 1), got {eta_target}")
    ta = math.tan(math.radians(profile.slope_alpha))
    half = 0.5 * xdcr.opening_angle_theta
    sin_half = math.sin(math.radians(half))
    k_width = sin_half / math.sin(math.radians(90.0 - half - profile.slope_alpha)) + (
        sin_half / math.sin(math.radians(90.0 - half + profile.slope_alpha))
    )
    depth_prev = profile.west_edge_depth - x_prev * ta
    if depth_prev <= 0.0:
        raise SurfacedSeabedError(
            f"surfaced seabed: depth {depth_prev:.3f} m at x = {x_prev:.3f} m"
        )
    w_prev = depth_prev * k_width
    n = int(math.floor(w_prev / step + 1e-12))
    if n < 1:
        raise NoSolutionInBracketError(
            f"no solution in bracket: scan step {step:g} m exceeds the "
            f"{w_prev:g} m bracket"
        )
    xs = x_prev + np.arange(1, n + 1) * step
    depths = profile.west_edge_depth - xs * ta
    widths = depths * k_width
    etas = 1.0 - (xs - x_prev) / (0.5 * (w_prev + widths))
    hits = np.nonzero((depths > 0.0) & (etas >= eta_target))[0]
    if hits.size == 0:
        raise NoSolutionInBracketError(
            f"no solution in bracket: no candidate reaches overlap {eta_target:g}"
        )
    # etas fall with x, so the last ascending hit is the first one met
    # when walking down from the far end
    return float(xs[hits[-1]])


def verify_plan(
    plan: SurveyPlan,
    region: SurveyRegion,
    xdcr: TransducerSpec,
    eta_min: float,
    eta_max: float,
    resolution: float = DEFAULT_RESOLUTION_M,
) -> VerificationResult:
    """Pass/fail coverage audit of a plan.

    Fails on any uncovered interval, any pairwise rasterized overlap ratio
    outside [eta_min - RATIO_SLACK, eta_max + RATIO_SLACK], or bed-measured
    widths that break the bed's shape: on a sloped bed they must shrink
    strictly west to east, on a flat bed they must all be equal.
    """
    report = rasterize_coverage(plan, region, xdcr, resolution)
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
    widths = [p.swath_width for p in plan.placements]
    for i, (w_west, w_east) in enumerate(zip(widths, widths[1:])):
        if region.slope_alpha > 0.0 and not w_east < w_west:
            findings.append(
                f"lines {i + 1}-{i + 2}: width not strictly decreasing "
                f"({w_west:.4f} -> {w_east:.4f} m)"
            )
        elif region.slope_alpha == 0.0 and w_east != w_west:
            findings.append(
                f"lines {i + 1}-{i + 2}: width not constant on a flat bed "
                f"({w_west:.4f} -> {w_east:.4f} m)"
            )
    return VerificationResult(passed=not findings, findings=tuple(findings), report=report)
