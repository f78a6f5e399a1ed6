"""West-to-east greedy placement of north-south survey lines.

Frame: x in meters east of the west region boundary. The deep side of the
region is fixed at the west edge, so depth falls off eastward. Every line
runs the full north-south length of the region; its across-track direction
is east-west, so the cross-track slope it sees equals the bed dip alpha.

On this planar bed depth is affine in x and a swath's width and footprint
are the depth times fixed factors, so both placement conditions (deep edge
on the west boundary, target overlap with the previous line) are linear in
x and solved in closed form. Each answer is then nudged west by a few ulps
until the contract holds exactly. The first line is checked through
``swath_at``; every later line scales the unit-depth swath halves by its
depth, which ``swath_cross_section`` guarantees gives the same floats, so
a plan solves the law of sines a fixed few times, not once per line.
The region computes tan(alpha) once, when it is built: depth, the
closed-form line count and the placement loop all read that one value,
and the count's first stop test is the loop's, on the same floats.

The records a plan is made of (``SurveyRegion``, ``LinePlacement``,
``SurveyPlan``) live in ``geometry``, so the commands that only read them
never compile this module; the names here are the same classes.
"""

from __future__ import annotations

import math

from .errors import (
    NoFeasibleStartError,
    PlanningError,
    RegionExhaustedError,
    SurfacedSeabedError,
)
from .geometry import (
    LinePlacement,
    SurveyPlan,
    SurveyRegion,
    SwathCrossSection,
    TransducerSpec,
    swath_cross_section,
)

# Longest plan plan_survey lays out; its closed-form line count is checked
# against this before the first line is placed.
MAX_LINES = 1_000_000


def depth_at_x(region: SurveyRegion, x: float) -> float:
    """Water depth (m) at x meters east of the west boundary.

    Raises SurfacedSeabedError once the depth line crosses the surface.
    """
    depth = region.west_edge_depth - x * region.tan_alpha
    if depth <= 0.0:
        raise SurfacedSeabedError(f"surfaced seabed: depth {depth:.3f} m at x = {x:.3f} m")
    return depth


def swath_at(region: SurveyRegion, xdcr: TransducerSpec, x: float) -> SwathCrossSection:
    """Cross-section of a north-south line at x; the cross-track slope is alpha."""
    return swath_cross_section(depth_at_x(region, x), region.slope_alpha, xdcr)


def _line_count(region: SurveyRegion, reach: float, free: float, x0: float) -> int | float:
    """Lines plan_survey places from a first line at x0, in closed form.

    ``reach`` is k_sh, how far east of a line at unit depth its shallow
    edge lies, horizontally, and ``free`` the part (1 - eta) * K of the
    unit-depth width K that the overlap target leaves unshared. With
    f = free and t = tan(alpha), each step scales the depth by
    q = (1 - f*t/2) / (1 + f*t/2). Placement stops at the first depth at or
    below D_stop = D_E / (1 - k_sh * t), where the shallow edge k_sh * D
    east of the line reaches the east boundary (D_E: the depth there). From
    D_0 = D(x0) that is ceil(log(D_0 / D_stop) / log(1 / q)) steps, with
    D_0 / D_stop = 1 + t * g / D_E and g = W - (x0 + k_sh * D_0) the strip
    the first swath leaves; g <= 0 is plan_survey's stop test on the same
    floats. On a flat bed each step is f * D_0.

    Returns 1 where no step exists (f*t/2 >= 1; plan_survey then stops at
    the second line) and inf where the count overflows.
    """
    ta = region.tan_alpha
    d0 = depth_at_x(region, x0)
    gap = region.width_ew - (x0 + d0 * reach)
    if gap <= 0.0 or 0.5 * free * ta >= 1.0:
        return 1
    if ta == 0.0:
        num, den = gap, free * d0
    else:
        east_depth = region.west_edge_depth - region.width_ew * ta
        num = math.log1p(ta * gap / east_depth) if east_depth > 0.0 else math.inf
        den = math.log1p(free * ta / (1.0 - 0.5 * free * ta))
    steps = num / den if den > 0.0 else math.inf
    return 1 + math.ceil(steps) if steps < math.inf else math.inf


def plan_survey(region: SurveyRegion, xdcr: TransducerSpec, eta_target: float) -> SurveyPlan:
    """Greedy west-to-east plan: lines at the target overlap until covered.

    The first line pins its deep edge to the west boundary; each later line
    keeps the target overlap with its predecessor; placement stops once a
    line's shallow edge reaches the east boundary. Infeasibility surfaces as
    a PlanningError carrying whatever partial plan existed; so does a line
    whose position or width overflows the doubles.

    The overlap of two lines is 1 - d / w_mean, with d their spacing and
    w_mean the mean of their bed-measured widths. Coverage checks elsewhere
    work on horizontal projections, shorter by about a factor cos(alpha).

    The line count is minimal among admissible plans (stay ahead). Call a
    plan admissible when

    1. its first line's deep edge is at or west of the west boundary,
    2. each pair of neighbours overlaps at least ``eta_target`` on the bed,
    3. its last line's shallow edge is at or east of the east boundary.

    With t = tan(alpha), K the width at unit depth, f = (1 - eta) * K and
    k the deep edge's horizontal reach at unit depth, condition 1 gives
    x_1 <= D_w * k / (1 + k * t) and condition 2 gives x' <= g(x), where
    g(x) = x + f * D(x) / (1 + f * t / 2). This plan takes both bounds, and
    g is increasing whenever a step exists (g' = (1 - f*t/2) / (1 + f*t/2)),
    so by induction its k-th line is at or east of any admissible plan's
    k-th line. The shallow edge x + k_sh * D(x) (k_sh its horizontal reach
    at unit depth) increases with x too, since 1 - k_sh * t > 0 for every
    fan under 180 deg. So this plan's line of the same index reaches the
    east boundary as soon as an admissible plan's last line does. Only the
    ulp nudges, which keep the contracts exact, can give up ground.
    """
    if not 0.0 < eta_target < 1.0:
        raise ValueError(f"overlap target must be in (0, 1), got {eta_target}")
    ta, ca = region.tan_alpha, math.cos(math.radians(region.slope_alpha))
    if ta > 0.0 and region.west_edge_depth / ta <= region.width_ew:
        # A bed surfacing inside the region can never satisfy the east
        # boundary termination: widths decay geometrically toward the
        # surfacing point and placement would recurse forever.
        raise RegionExhaustedError(
            f"region exhausted: seabed surfaces at x = {region.west_edge_depth / ta:.3f} m, "
            f"inside the {region.width_ew:.3f} m east-west extent"
        )
    placements: list[LinePlacement] = []
    try:
        unit = swath_cross_section(1.0, region.slope_alpha, xdcr)
        k_d, k_s = unit.half_deep, unit.half_shallow
        # the part of the unit-depth width K that the target leaves unshared
        free = (1.0 - eta_target) * unit.total_width
        # how far east of a line at unit depth its shallow edge lies, horizontally
        reach = k_s * ca
        # The first line's deep edge sits k * depth(x) west of it, with
        # k = k_d * cos(alpha) and k_d the deep half-width at unit depth, so
        # pinning that edge to the west boundary (x = k * depth(x)) gives
        #
        #     x0 = D_w * k / (1 + k * tan(alpha)).
        k = k_d * ca
        x = region.west_edge_depth * k / (1.0 + k * ta)
        if x > region.width_ew:
            raise NoFeasibleStartError(
                f"no feasible start: a line at x = {region.width_ew:.3f} m still reaches "
                "past the west boundary"
            )
        # nudge west by ulps until the deep edge is at or west of the boundary
        while x - (section := swath_at(region, xdcr, x)).half_deep * ca > 0.0:
            x = math.nextafter(x, -math.inf)
        if (count := _line_count(region, reach, free, x)) > MAX_LINES:
            raise PlanningError(
                f"too many lines: the plan needs {float(count):.4g} lines, "
                f"more than the {MAX_LINES:,} allowed"
            )
        # With width K * depth and depth falling by tan(alpha) per meter,
        # the overlap 1 - step / w_mean is linear in the step:
        #
        #     step = (1 - eta) * K * D_prev / (1 + (1 - eta) * K * tan(alpha) / 2).
        half_drop = 0.5 * free * ta
        step_den = 1.0 + half_drop
        # Each line carries (x, d, w): its depth and its width d*k_d + d*k_s.
        # swath_cross_section scales the unit halves the same way, so these
        # are the floats swath_at(x) returns, bit for bit, without re-solving
        # the law of sines.
        d, w, achieved = section.local_depth, section.total_width, None
        while True:
            # Every line is placed here. LinePlacement refuses a non-finite x
            # or width: a swath past the largest double is a plan that cannot
            # be made, not a crash. achieved is None on the first line and in
            # [eta, 1) after it, so only the finiteness check can refuse.
            try:
                placements.append(LinePlacement(x, w, achieved))
            except ValueError as err:
                raise PlanningError(
                    f"plan overflows: line {len(placements) + 1}: {err}"
                ) from err
            # done once a line's horizontal shallow edge reaches the east boundary
            if not x + d * reach < region.width_ew:
                break
            # No step exists once (1 - eta) * K * tan(alpha) / 2 >= 1: the bed
            # would surface at or before the position the target asks for.
            if half_drop >= 1.0:
                raise RegionExhaustedError(
                    f"region exhausted: seabed surfaces near x = "
                    f"{region.west_edge_depth / ta:.3f} m "
                    f"before the overlap can drop to {eta_target:g}"
                )
            # nudge west by ulps until the achieved overlap never undershoots
            x_next = x + free * d / step_den
            while True:
                d_next = depth_at_x(region, x_next)
                w_next = d_next * k_d + d_next * k_s
                achieved = 1.0 - (x_next - x) / (0.5 * (w + w_next))
                # a NaN overlap, from an x past the largest double, ends it too
                if not achieved < eta_target:
                    break
                x_next = math.nextafter(x_next, -math.inf)
            # a target near 1 over a nearly dry east edge shrinks the step
            # below 1e-9 of x; stop here instead of placing billions of lines
            if x_next - x <= 1e-9 * max(1.0, x):
                raise RegionExhaustedError(
                    f"region exhausted: placement stalled at x = {x:.3f} m"
                )
            x, d, w = x_next, d_next, w_next
    except PlanningError as err:
        if placements:
            err.partial_plan = SurveyPlan(tuple(placements), region.length_ns)
        raise
    return SurveyPlan(tuple(placements), region.length_ns)
