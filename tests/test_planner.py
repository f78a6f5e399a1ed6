"""Line placement: depth profile, the two closed-form solves, full plans."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from swathplan.errors import (
    NoFeasibleStartError,
    PlanningError,
    RegionExhaustedError,
    SurfacedSeabedError,
)
from swathplan.geometry import TransducerSpec, horizontal_footprint
from swathplan.planner import (
    DepthProfile,
    LinePlacement,
    SurveyRegion,
    depth_at_x,
    derive_profile,
    first_line_position,
    next_line_position,
    overlap_ratio,
    plan_survey,
    swath_at,
)

FLAT_110 = DepthProfile(west_edge_depth=110.0, edge_offset_d1=0.0, slope_alpha=0.0)


def test_derive_profile_default_region(region, profile):
    assert profile.edge_offset_d1 == pytest.approx(96.99265349226839, rel=1e-12)
    assert profile.west_edge_depth == pytest.approx(206.9926534922684, rel=1e-12)
    assert profile.slope_alpha == region.slope_alpha


def test_region_rejects_non_finite_values():
    good = dict(width_ew=2000.0, length_ns=500.0, center_depth=80.0, slope_alpha=3.0)
    for field in ("width_ew", "length_ns", "center_depth"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SurveyRegion(**{**good, field: value})


def test_derive_profile_scales_with_region():
    region = SurveyRegion(width_ew=2000.0, length_ns=500.0, center_depth=80.0, slope_alpha=3.0)
    assert derive_profile(region).edge_offset_d1 == pytest.approx(
        52.40777928304121, rel=1e-12
    )


def test_depth_profile_anchors(profile):
    assert depth_at_x(profile, 0.0) == pytest.approx(206.9926534922684, rel=1e-12)
    assert depth_at_x(profile, 3704.0) == pytest.approx(110.0, abs=1e-6)
    assert depth_at_x(profile, 951.734) == pytest.approx(182.07062161353986, rel=1e-12)
    assert depth_at_x(profile, 7408.0) == pytest.approx(13.007346507731614, rel=1e-9)


def test_depth_profile_rejects_dry_x(profile):
    with pytest.raises(SurfacedSeabedError, match="surfaced seabed"):
        depth_at_x(profile, 9000.0)


def test_swath_at_uses_the_cross_track_dip(profile, xdcr):
    section = swath_at(profile, xdcr, 951.7973524032475)
    assert section.effective_gamma == profile.slope_alpha
    assert section.local_depth == pytest.approx(depth_at_x(profile, 951.7973524032475))
    assert section.total_width == pytest.approx(632.22214, abs=1e-3)


def test_overlap_ratio_matches_definition(profile, xdcr):
    x_west, x_east = 1000.0, 1400.0
    w_mean = 0.5 * (
        swath_at(profile, xdcr, x_west).total_width
        + swath_at(profile, xdcr, x_east).total_width
    )
    expected = 1.0 - (x_east - x_west) / w_mean
    assert overlap_ratio(profile, xdcr, x_west, x_east) == pytest.approx(expected, rel=1e-15)


def test_first_line_position_default(profile, xdcr):
    x1 = first_line_position(profile, xdcr)
    assert x1 == pytest.approx(358.52179264210827, abs=1e-6)
    # deep edge pinned to the west boundary, never short of it
    proj_deep, _ = horizontal_footprint(swath_at(profile, xdcr, x1), profile.slope_alpha)
    assert 0.0 <= proj_deep - x1 < 1e-6


def test_first_line_position_flat(xdcr):
    x1 = first_line_position(FLAT_110, xdcr)
    assert x1 == pytest.approx(110.0 * math.tan(math.radians(60.0)), rel=1e-12)
    assert x1 == pytest.approx(190.52558883257643, rel=1e-12)


def test_first_line_position_against_grid_scan(profile):
    """Solve x = proj_deep(x) for a 90 deg fan by brute grid scan.

    The scan shares no code with the closed form: footprints come from a
    vectorized transcription of the law-of-sines construction.
    """
    xdcr90 = TransducerSpec(opening_angle_theta=90.0)
    ta = math.tan(math.radians(profile.slope_alpha))
    sin_half = math.sin(math.radians(45.0))
    k_deep = sin_half / math.sin(math.radians(45.0 - profile.slope_alpha))
    proj = k_deep * math.cos(math.radians(profile.slope_alpha))

    xs = np.arange(0.0, 400.0, 5e-4)
    depths = profile.west_edge_depth - xs * ta
    crossing = xs - depths * proj  # negative west of the root
    scan_root = float(xs[np.searchsorted(crossing >= 0.0, True)])

    assert first_line_position(profile, xdcr90) == pytest.approx(scan_root, abs=1e-3)


def test_first_line_position_infeasible_when_capped(profile, xdcr):
    with pytest.raises(NoFeasibleStartError, match="no feasible start"):
        first_line_position(profile, xdcr, x_max=10.0)


def test_next_line_position_sequence(profile, xdcr):
    x1 = first_line_position(profile, xdcr)
    x2 = next_line_position(profile, xdcr, x1, 0.10)
    x3 = next_line_position(profile, xdcr, x2, 0.10)
    assert x2 == pytest.approx(951.7973524032475, abs=1e-6)
    assert x3 == pytest.approx(1498.4301671248572, abs=1e-6)


def test_next_line_overlap_never_undershoots(profile, xdcr):
    x2 = next_line_position(profile, xdcr, 358.52179264210827, 0.10)
    achieved = overlap_ratio(profile, xdcr, 358.52179264210827, x2)
    assert 0.10 <= achieved <= 0.10 + 1e-4


def test_next_line_flat_spacing_is_closed_form(xdcr):
    # constant width W makes the implicit spacing explicit: (1 - eta) * W
    w = 2.0 * 110.0 * math.tan(math.radians(60.0))
    for x_prev in (0.0, 190.52558883257643, 1234.5):
        x_next = next_line_position(FLAT_110, xdcr, x_prev, 0.10)
        assert x_next - x_prev == pytest.approx(0.9 * w, rel=1e-9)
        assert x_next - x_prev == pytest.approx(342.9460598986376, rel=1e-9)


def test_next_line_rejects_bad_eta(profile, xdcr):
    for eta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="overlap target"):
            next_line_position(profile, xdcr, 400.0, eta)


def test_next_line_exhausts_on_surfacing_bed(xdcr):
    # 25 deg dip dries out before the overlap can fall to 10%
    steep = DepthProfile(west_edge_depth=50.0, edge_offset_d1=0.0, slope_alpha=25.0)
    with pytest.raises(RegionExhaustedError, match="region exhausted"):
        next_line_position(steep, xdcr, 0.0, 0.10)


def test_plan_survey_default_scenario(reference_plan, region, profile, xdcr):
    plan = reference_plan
    assert plan.line_count == 34
    assert len(plan.placements) == 34
    assert plan.line_length == region.length_ns
    assert plan.total_track_length == pytest.approx(68.0, rel=1e-12)

    xs = [p.x for p in plan.placements]
    assert xs[0] == pytest.approx(358.52179264210827, abs=1e-6)
    assert xs[1] == pytest.approx(951.7973524032475, abs=1e-6)
    assert xs[2] == pytest.approx(1498.4301671248572, abs=1e-6)
    assert xs[-3] == pytest.approx(7308.5946, abs=1e-3)
    assert xs[-2] == pytest.approx(7355.4622, abs=1e-3)
    assert xs[-1] == pytest.approx(7398.6452, abs=1e-3)

    widths = [p.swath_width for p in plan.placements]
    assert widths[0] == pytest.approx(686.16800, abs=1e-3)
    assert widths[1] == pytest.approx(632.22214, abs=1e-3)
    assert widths[-1] == pytest.approx(46.01775, abs=1e-3)

    assert plan.placements[0].overlap_with_previous is None
    for p in plan.placements[1:]:
        assert 0.10 <= p.overlap_with_previous <= 0.10 + 1e-4

    for p in plan.placements:
        assert p.depth == pytest.approx(depth_at_x(profile, p.x), rel=1e-12)


def test_plan_survey_covers_the_region(reference_plan, region, profile, xdcr):
    first, last = reference_plan.placements[0], reference_plan.placements[-1]
    proj_deep, _ = horizontal_footprint(swath_at(profile, xdcr, first.x), profile.slope_alpha)
    assert first.x - proj_deep <= 0.0  # west edge reached
    _, proj_shallow = horizontal_footprint(swath_at(profile, xdcr, last.x), profile.slope_alpha)
    assert last.x + proj_shallow >= region.width_ew  # east edge reached
    # no line east of the last is needed: the previous one fell short
    second_last = reference_plan.placements[-2]
    _, prev_shallow = horizontal_footprint(
        swath_at(profile, xdcr, second_last.x), profile.slope_alpha
    )
    assert second_last.x + prev_shallow < region.width_ew


def test_plan_survey_shrinking_widths_and_spacing(reference_plan):
    widths = [p.swath_width for p in reference_plan.placements]
    assert all(e < w for w, e in zip(widths, widths[1:]))
    xs = [p.x for p in reference_plan.placements]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_plan_survey_flat_region_is_uniform(xdcr):
    region = SurveyRegion(
        width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=0.0
    )
    plan = plan_survey(region, xdcr, 0.10)
    xs = [p.x for p in plan.placements]
    assert xs[0] == pytest.approx(190.52558883257643, rel=1e-9)
    for a, b in zip(xs, xs[1:]):
        assert b - a == pytest.approx(342.9460598986376, rel=1e-9)
    assert xs[-1] + 190.52558883257643 >= region.width_ew


def test_plan_survey_is_deterministic(region, xdcr):
    assert plan_survey(region, xdcr, 0.10) == plan_survey(region, xdcr, 0.10)


def test_plan_survey_rejects_bad_eta(region, xdcr):
    with pytest.raises(ValueError, match="overlap target"):
        plan_survey(region, xdcr, 0.0)


def test_plan_survey_rejects_surfacing_inside_region(xdcr):
    # west edge 147 m deep dries out 5.6 km in; no finite plan exists
    shallow = SurveyRegion(
        width_ew=7408.0, length_ns=3704.0, center_depth=50.0, slope_alpha=1.5
    )
    with pytest.raises(RegionExhaustedError, match="seabed surfaces at"):
        plan_survey(shallow, xdcr, 0.10)


def test_plan_survey_attaches_partial_plan_on_late_failure(region):
    # a 150 deg fan cannot pin its deep edge inside a narrow region
    wide = TransducerSpec(opening_angle_theta=150.0)
    narrow = SurveyRegion(
        width_ew=370.0, length_ns=3704.0, center_depth=110.0, slope_alpha=1.5
    )
    with pytest.raises(NoFeasibleStartError) as exc:
        plan_survey(narrow, wide, 0.10)
    assert exc.value.partial_plan is None  # nothing was placed yet


def test_placement_contract_over_the_envelope():
    """Every plan keeps both contracts exactly, across the valid input range.

    The first line's deep edge lies at or west of the boundary and every
    achieved overlap is at least the target, both checked through swath_at
    on the floats the planner returns.
    """
    rng = random.Random(2407)
    planned = 0
    for _ in range(300):
        alpha = rng.uniform(0.0, 20.0)
        theta = rng.uniform(30.0, 160.0)
        eta = rng.uniform(0.01, 0.99)
        center = rng.uniform(20.0, 500.0)
        # at most 5 depths wide: the east edge stays under water at 20 deg
        region = SurveyRegion(
            width_ew=rng.uniform(0.5, 5.0) * center,
            length_ns=1000.0,
            center_depth=center,
            slope_alpha=alpha,
        )
        fan = TransducerSpec(opening_angle_theta=theta)
        try:
            plan = plan_survey(region, fan, eta)
        except PlanningError:
            continue  # grazing beam, no feasible start or a bed too steep for eta
        planned += 1
        profile = derive_profile(region)
        first = plan.placements[0]
        proj_deep, _ = horizontal_footprint(swath_at(profile, fan, first.x), alpha)
        assert first.x - proj_deep <= 0.0, (alpha, theta, eta)
        for p in plan.placements[1:]:
            assert p.overlap_with_previous >= eta, (alpha, theta, eta)
    assert planned >= 150


def test_plan_survey_equals_the_step_by_step_layout():
    """plan_survey reuses each new line's section for the achieved overlap.

    Laying the lines out one call at a time through the public solves,
    with overlap_ratio and swath_at evaluated afresh for every pair, gives
    the same placements to the last bit.
    """
    rng = random.Random(2408)
    planned = 0
    for _ in range(200):
        alpha = rng.uniform(0.0, 5.0)
        theta = rng.uniform(60.0, 150.0)
        eta = rng.uniform(0.05, 0.95)
        center = rng.uniform(40.0, 300.0)
        region = SurveyRegion(
            width_ew=rng.uniform(1.0, 10.0) * center,
            length_ns=1000.0,
            center_depth=center,
            slope_alpha=alpha,
        )
        fan = TransducerSpec(opening_angle_theta=theta)
        try:
            plan = plan_survey(region, fan, eta)
        except PlanningError:
            continue
        planned += 1
        profile = derive_profile(region)
        x = first_line_position(profile, fan, x_max=region.width_ew)
        section = swath_at(profile, fan, x)
        expected = [LinePlacement(x, section.local_depth, section.total_width, None)]
        while x + horizontal_footprint(section, alpha)[1] < region.width_ew:
            x_next = next_line_position(profile, fan, x, eta)
            achieved = overlap_ratio(profile, fan, x, x_next)
            section = swath_at(profile, fan, x_next)
            expected.append(
                LinePlacement(x_next, section.local_depth, section.total_width, achieved)
            )
            x = x_next
        assert plan.placements == tuple(expected), (alpha, theta, eta)
    assert planned >= 150
