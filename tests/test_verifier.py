"""Raster coverage accounting and the grid-scan oracle for the placement solves."""

from __future__ import annotations

import math
import random

import pytest

from swathplan.errors import NoSolutionInBracketError, SurfacedSeabedError
from swathplan.geometry import TransducerSpec, effective_slope, swath_cross_section
from swathplan.planner import (
    DepthProfile,
    LinePlacement,
    SurveyPlan,
    SurveyRegion,
    first_line_position,
    next_line_position,
    plan_survey,
)
from swathplan.verifier import brute_force_next_line, rasterize_coverage, verify_plan

FLAT_110 = DepthProfile(west_edge_depth=110.0, edge_offset_d1=0.0, slope_alpha=0.0)
# depth chosen so a 120 deg fan spans exactly 400 m on a flat bed
FLAT_W400 = DepthProfile(
    west_edge_depth=200.0 / math.tan(math.radians(60.0)),
    edge_offset_d1=0.0,
    slope_alpha=0.0,
)


def _plan_of(placements, region):
    return SurveyPlan(
        placements=tuple(placements),
        line_length=region.length_ns,
    )


def test_rasterize_empty_plan(region, xdcr):
    report = rasterize_coverage(_plan_of([], region), region, xdcr)
    assert report.uncovered_intervals == ((0.0, region.width_ew),)
    assert report.pairwise_overlap_ratios == ()
    assert report.max_multiplicity == 0


def test_rasterize_single_line_gaps(xdcr):
    # flat bed tuned so the one footprint is exactly [50, 150] in a 400 m region
    region = SurveyRegion(
        width_ew=400.0,
        length_ns=100.0,
        center_depth=50.0 / math.tan(math.radians(60.0)),
        slope_alpha=0.0,
    )
    line = LinePlacement(x=100.0, depth=region.center_depth, swath_width=100.0,
                         overlap_with_previous=None)
    report = rasterize_coverage(_plan_of([line], region), region, xdcr)
    assert len(report.uncovered_intervals) == 2
    (lo1, hi1), (lo2, hi2) = report.uncovered_intervals
    assert (lo1, hi1) == pytest.approx((0.0, 50.0), abs=0.2)
    assert (lo2, hi2) == pytest.approx((150.0, 400.0), abs=0.2)
    assert report.max_multiplicity == 1


def test_rasterize_rejects_bad_resolution(reference_plan, region, xdcr):
    with pytest.raises(ValueError, match="resolution"):
        rasterize_coverage(reference_plan, region, xdcr, resolution=0.0)
    with pytest.raises(ValueError, match="resolution"):
        rasterize_coverage(reference_plan, region, xdcr, resolution=region.width_ew / 99.0)


def test_rasterize_default_plan(reference_plan, region, xdcr):
    report = rasterize_coverage(reference_plan, region, xdcr)
    assert report.uncovered_intervals == ()
    assert len(report.pairwise_overlap_ratios) == 33
    for ratio in report.pairwise_overlap_ratios:
        assert 0.095 <= ratio <= 0.105
    # 10% overlap never stacks three swaths
    assert report.max_multiplicity == 2


def test_rasterize_ratio_converges_with_resolution(reference_plan, region, xdcr):
    # each raster pins the shared extent to within one cell, so halving the
    # resolution moves a ratio by at most (coarse + fine) cells per footprint
    coarse = rasterize_coverage(reference_plan, region, xdcr, resolution=0.2)
    fine = rasterize_coverage(reference_plan, region, xdcr, resolution=0.1)
    cos_a = math.cos(math.radians(region.slope_alpha))
    widths = [p.swath_width for p in reference_plan.placements]
    for i, (rc, rf) in enumerate(
        zip(coarse.pairwise_overlap_ratios, fine.pairwise_overlap_ratios)
    ):
        footprint_mean = 0.5 * (widths[i] + widths[i + 1]) * cos_a
        assert abs(rc - rf) < (0.2 + 0.1) / footprint_mean


def test_brute_force_flat_closed_form(xdcr):
    # W = 400 m, eta = 0.10: the spacing collapses to (1 - eta) * W = 360
    x = brute_force_next_line(FLAT_W400, xdcr, 500.0, 0.10, step=0.01)
    assert x == pytest.approx(860.0, abs=0.0100001)


def test_brute_force_matches_bisection_on_default_profile(profile, xdcr):
    x1 = first_line_position(profile, xdcr)
    for x_prev in (x1, 2000.0, 5000.0):
        scanned = brute_force_next_line(profile, xdcr, x_prev, 0.10, step=0.01)
        solved = next_line_position(profile, xdcr, x_prev, 0.10)
        assert abs(scanned - solved) <= 0.02


def test_brute_force_near_total_overlap(xdcr):
    w = 2.0 * 110.0 * math.tan(math.radians(60.0))
    x = brute_force_next_line(FLAT_110, xdcr, 0.0, 0.99, step=0.01)
    assert x == pytest.approx(0.01 * w, abs=0.011)


def test_brute_force_agrees_over_random_profiles(xdcr):
    """Closed form vs grid scan on 100 random (profile, x_prev, eta) triples."""
    rng = random.Random(507)
    for _ in range(100):
        alpha = rng.uniform(0.2, 3.0)
        theta = rng.uniform(60.0, 150.0)
        eta = rng.uniform(0.05, 0.3)
        depth = rng.uniform(40.0, 300.0)
        profile = DepthProfile(west_edge_depth=depth, edge_offset_d1=0.0, slope_alpha=alpha)
        wet = depth / math.tan(math.radians(alpha))
        x_prev = rng.uniform(0.0, 0.3 * wet)
        fan = TransducerSpec(opening_angle_theta=theta)
        scanned = brute_force_next_line(profile, fan, x_prev, eta, step=0.01)
        solved = next_line_position(profile, fan, x_prev, eta)
        assert abs(scanned - solved) <= 0.02


def test_brute_force_error_cases(profile, xdcr):
    with pytest.raises(ValueError, match="scan step"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 0.10, step=0.0)
    with pytest.raises(ValueError, match="overlap target"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 1.0)
    with pytest.raises(NoSolutionInBracketError, match="no solution in bracket"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 0.10, step=500.0)
    with pytest.raises(NoSolutionInBracketError, match="no candidate"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 0.5, step=300.0)
    with pytest.raises(SurfacedSeabedError, match="surfaced seabed"):
        brute_force_next_line(profile, xdcr, 9000.0, 0.10)


def test_verify_default_plan_passes(reference_plan, region, xdcr):
    result = verify_plan(reference_plan, region, xdcr, 0.10, 0.20)
    assert result.passed
    assert result.findings == ()
    assert result.report.uncovered_intervals == ()


def test_verify_detects_deleted_line(reference_plan, region, xdcr):
    kept = list(reference_plan.placements)
    removed = kept.pop(16)  # drop line 17
    result = verify_plan(_plan_of(kept, region), region, xdcr, 0.10, 0.20)
    assert not result.passed
    gaps = [f for f in result.findings if f.startswith("uncovered interval")]
    assert len(gaps) == 1
    (lo, hi) = result.report.uncovered_intervals[0]
    assert lo < removed.x < hi


def test_verify_detects_coincident_lines(xdcr):
    # two nearly identical flat-bed lines: shared extent ~ the whole footprint
    region = SurveyRegion(width_ew=381.0, length_ns=100.0, center_depth=110.0, slope_alpha=0.0)
    w = 2.0 * 110.0 * math.tan(math.radians(60.0))
    lines = [
        LinePlacement(x=190.53, depth=110.0, swath_width=w, overlap_with_previous=None),
        LinePlacement(x=191.03, depth=110.0, swath_width=w, overlap_with_previous=0.99),
    ]
    result = verify_plan(_plan_of(lines, region), region, xdcr, 0.10, 0.20)
    assert not result.passed
    assert any("rasterized overlap" in f for f in result.findings)
    assert result.report.pairwise_overlap_ratios[0] > 0.9


def test_verify_detects_width_ordering(reference_plan, region, xdcr):
    backwards = _plan_of(list(reversed(reference_plan.placements)), region)
    result = verify_plan(backwards, region, xdcr, 0.10, 0.20)
    assert not result.passed
    assert all("width not strictly decreasing" in f for f in result.findings)


def test_verify_width_rule_on_a_flat_bed(xdcr):
    # equal widths are the geometry of a flat bed; a changed one is a finding
    region = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=0.0)
    plan = plan_survey(region, xdcr, 0.10)
    assert verify_plan(plan, region, xdcr, 0.10, 0.20).passed
    placements = list(plan.placements)
    placements[3] = LinePlacement(
        x=placements[3].x, depth=110.0, swath_width=placements[3].swath_width - 1.0,
        overlap_with_previous=placements[3].overlap_with_previous,
    )
    result = verify_plan(_plan_of(placements, region), region, xdcr, 0.10, 0.20)
    assert result.findings == (
        "lines 3-4: width not constant on a flat bed (381.0512 -> 380.0512 m)",
        "lines 4-5: width not constant on a flat bed (380.0512 -> 381.0512 m)",
    )


def test_verify_randomized_scenarios(xdcr):
    """Planned scenarios verify cleanly across the supported envelope.

    The pairwise raster ratio and the planner's overlap target live in
    different conventions: the raster divides a horizontal shared extent by
    the mean footprint, the planner spaces lines on bed-measured widths.
    For a uniform dip the two are related by

        r = 1 - (1 - eta) * (1/cos(a) + tan(a) * (kd - ks) / 2)

    with kd/ks the deep/shallow width factors at unit depth. The expected
    band passed to verify_plan is mapped through that relation.
    """
    rng = random.Random(508)
    for _ in range(20):
        alpha = rng.uniform(0.0, 3.0)
        theta = rng.uniform(60.0, 150.0)
        eta = rng.uniform(0.05, 0.25)
        width_ew = rng.uniform(0.8, 1.5) * 1852.0
        d1 = 0.5 * width_ew * math.tan(math.radians(alpha))
        center = rng.uniform(d1 + 60.0, d1 + 120.0)
        region = SurveyRegion(
            width_ew=width_ew, length_ns=1852.0, center_depth=center, slope_alpha=alpha
        )
        fan = TransducerSpec(opening_angle_theta=theta)
        plan = plan_survey(region, fan, eta)

        gamma = effective_slope(alpha, 90.0)
        unit = swath_cross_section(1.0, gamma, fan)
        k_factor = 1.0 / math.cos(math.radians(alpha)) + math.tan(math.radians(alpha)) * (
            unit.half_deep - unit.half_shallow
        ) / 2.0
        expected = 1.0 - (1.0 - eta) * k_factor
        result = verify_plan(plan, region, fan, expected, expected)
        assert result.passed, (alpha, theta, eta, result.findings[:3])
