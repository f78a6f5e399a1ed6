"""West-to-east greedy placement of north-south survey lines.

Frame: x in meters east of the west region boundary. The deep side of the
region is fixed at the west edge, so depth falls off eastward. Every line
runs the full north-south length of the region; its across-track direction
is east-west, so the cross-track slope it sees equals the bed dip alpha.

On this planar bed depth is affine in x and a swath's width and footprint
are the depth times fixed factors, so both placement conditions (deep edge
on the west boundary, target overlap with the previous line) are linear in
x and solved in closed form. Each answer is then nudged west by a few ulps
until the contract holds exactly when checked through ``swath_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    NoFeasibleStartError,
    PlanningError,
    RegionExhaustedError,
    SurfacedSeabedError,
)
from .geometry import SwathCrossSection, TransducerSpec, horizontal_footprint, swath_cross_section
from .units import METERS_PER_NAUTICAL_MILE


@dataclass(frozen=True)
class SurveyRegion:
    """Rectangular survey region. The deep side is the west edge by convention."""

    width_ew: float  # east-west extent, m
    length_ns: float  # north-south extent, m
    center_depth: float  # depth at the region center, m
    slope_alpha: float  # east-west bed dip, deg

    def __post_init__(self):
        if not all(map(math.isfinite, (self.width_ew, self.length_ns, self.center_depth))):
            raise ValueError("region extents and center depth must be finite")
        if self.width_ew <= 0.0 or self.length_ns <= 0.0:
            raise ValueError("region extents must be positive")
        if self.center_depth <= 0.0:
            raise ValueError(f"center depth must be positive, got {self.center_depth}")
        if not 0.0 <= self.slope_alpha < 90.0:
            raise ValueError(f"slope angle must be in [0, 90) degrees, got {self.slope_alpha}")


@dataclass(frozen=True)
class DepthProfile:
    """East-west depth profile: depth(x) = west_edge_depth - x * tan(alpha)."""

    west_edge_depth: float
    edge_offset_d1: float  # depth increase from region center to the west edge, m
    slope_alpha: float


@dataclass(frozen=True)
class LinePlacement:
    """One north-south survey line and the geometry recorded for reports."""

    x: float
    swath_width: float  # bed-measured total width, m
    overlap_with_previous: float | None  # None on the westmost line

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.swath_width)):
            raise ValueError(f"line x and width must be finite, got {self.x}, {self.swath_width}")
        if self.overlap_with_previous is not None and not (
            0.0 < self.overlap_with_previous < 1.0
        ):
            raise ValueError(f"overlap must be in (0, 1), got {self.overlap_with_previous}")


@dataclass(frozen=True)
class SurveyPlan:
    """Ordered west-to-east line placements plus track totals."""

    placements: tuple[LinePlacement, ...]
    line_length: float  # north-south length of every line, m

    @property
    def line_count(self) -> int:
        return len(self.placements)

    @property
    def total_track_length(self) -> float:
        """Summed length of all lines, nautical miles."""
        return self.line_count * self.line_length / METERS_PER_NAUTICAL_MILE


def derive_profile(region: SurveyRegion) -> DepthProfile:
    """Depth profile of a region, anchored at the (deep) west edge."""
    d1 = 0.5 * region.width_ew * math.tan(math.radians(region.slope_alpha))
    return DepthProfile(
        west_edge_depth=region.center_depth + d1,
        edge_offset_d1=d1,
        slope_alpha=region.slope_alpha,
    )


def depth_at_x(profile: DepthProfile, x: float) -> float:
    """Water depth (m) at x meters east of the west boundary.

    Raises SurfacedSeabedError once the profile line crosses the surface.
    """
    depth = profile.west_edge_depth - x * math.tan(math.radians(profile.slope_alpha))
    if depth <= 0.0:
        raise SurfacedSeabedError(f"surfaced seabed: depth {depth:.3f} m at x = {x:.3f} m")
    return depth


def swath_at(profile: DepthProfile, xdcr: TransducerSpec, x: float) -> SwathCrossSection:
    """Cross-section of a north-south line at x; the cross-track slope is alpha."""
    return swath_cross_section(depth_at_x(profile, x), profile.slope_alpha, xdcr)


def first_line_position(
    profile: DepthProfile, xdcr: TransducerSpec, x_max: float | None = None
) -> float:
    """x of the westmost line: its deep edge must land on the west boundary.

    The deep edge sits kd * cos(alpha) * depth(x) west of the line, with kd
    the deep half-width at unit depth, so x = kd * cos(alpha) * depth(x)
    solves to

        x0 = D_w * kd * cos(alpha) / (1 + kd * cos(alpha) * tan(alpha)).

    The returned position keeps the deep edge at or a hair west of the
    boundary (never short of it).

    Raises NoFeasibleStartError when x_max (usually the region width) lies
    west of x0, i.e. even the easternmost allowed line would overreach the
    boundary.
    """
    a = math.radians(profile.slope_alpha)
    k_proj = swath_cross_section(1.0, profile.slope_alpha, xdcr).half_deep * math.cos(a)
    x = profile.west_edge_depth * k_proj / (1.0 + k_proj * math.tan(a))
    if x_max is not None and x > x_max:
        raise NoFeasibleStartError(
            f"no feasible start: a line at x = {x_max:.3f} m still reaches "
            "past the west boundary"
        )
    while x - horizontal_footprint(swath_at(profile, xdcr, x), profile.slope_alpha)[0] > 0.0:
        x = math.nextafter(x, -math.inf)
    return x


def plan_survey(region: SurveyRegion, xdcr: TransducerSpec, eta_target: float) -> SurveyPlan:
    """Greedy west-to-east plan: lines at the target overlap until covered.

    The first line pins its deep edge to the west boundary; each later line
    keeps the target overlap with its predecessor; placement stops once a
    line's shallow edge reaches the east boundary. Infeasibility surfaces as
    a PlanningError carrying whatever partial plan existed.

    The overlap of two lines is 1 - d / w_mean, with d their spacing and
    w_mean the mean of their bed-measured widths. Coverage checks elsewhere
    work on horizontal projections, shorter by about a factor cos(alpha).
    """
    if not 0.0 < eta_target < 1.0:
        raise ValueError(f"overlap target must be in (0, 1), got {eta_target}")
    profile = derive_profile(region)
    ta = math.tan(math.radians(profile.slope_alpha))
    if ta > 0.0 and profile.west_edge_depth / ta <= region.width_ew:
        # A bed surfacing inside the region can never satisfy the east
        # boundary termination: widths decay geometrically toward the
        # surfacing point and placement would recurse forever.
        raise RegionExhaustedError(
            f"region exhausted: seabed surfaces at x = {profile.west_edge_depth / ta:.3f} m, "
            f"inside the {region.width_ew:.3f} m east-west extent"
        )
    placements: list[LinePlacement] = []
    try:
        # the part of the unit-depth width K that the target leaves unshared
        free = (1.0 - eta_target) * swath_cross_section(1.0, profile.slope_alpha, xdcr).total_width
        x = first_line_position(profile, xdcr, x_max=region.width_ew)
        section = swath_at(profile, xdcr, x)
        placements.append(LinePlacement(x, section.total_width, None))
        while True:
            _, proj_shallow = horizontal_footprint(section, profile.slope_alpha)
            if x + proj_shallow >= region.width_ew:
                break
            # With width K * depth and depth falling by tan(alpha) per meter,
            # the overlap 1 - step / w_mean is linear in the step:
            #
            #     step = (1 - eta) * K * D_prev / (1 + (1 - eta) * K * tan(alpha) / 2).
            #
            # No step exists once (1 - eta) * K * tan(alpha) / 2 >= 1: the bed
            # would surface at or before the position the target asks for.
            if 0.5 * free * ta >= 1.0:
                raise RegionExhaustedError(
                    f"region exhausted: seabed surfaces near x = "
                    f"{profile.west_edge_depth / ta:.3f} m "
                    f"before the overlap can drop to {eta_target:g}"
                )
            w_prev = section.total_width
            x_next = x + free * section.local_depth / (1.0 + 0.5 * free * ta)
            section = swath_at(profile, xdcr, x_next)
            # nudge west by ulps until the achieved overlap never undershoots
            while (
                achieved := 1.0 - (x_next - x) / (0.5 * (w_prev + section.total_width))
            ) < eta_target:
                x_next = math.nextafter(x_next, -math.inf)
                section = swath_at(profile, xdcr, x_next)
            # a target near 1 over a nearly dry east edge shrinks the step
            # below 1e-9 of x; stop here instead of placing billions of lines
            if x_next - x <= 1e-9 * max(1.0, x):
                raise RegionExhaustedError(
                    f"region exhausted: placement stalled at x = {x:.3f} m"
                )
            placements.append(LinePlacement(x_next, section.total_width, achieved))
            x = x_next
    except PlanningError as err:
        if placements:
            err.partial_plan = SurveyPlan(tuple(placements), region.length_ns)
        raise
    return SurveyPlan(tuple(placements), region.length_ns)
