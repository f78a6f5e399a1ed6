"""Line placement: the region's depth line, the closed-form first line, full plans."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import admissible_bounds, decimal_greedy_count

from swathplan.errors import (
    NoFeasibleStartError,
    PlanningError,
    PlanOverflowError,
    RegionExhaustedError,
    SurfacedSeabedError,
    TooManyLinesError,
)
from swathplan import planner
from swathplan.geometry import TransducerSpec, swath_cross_section
from swathplan.planner import (
    SurveyRegion,
    _line_count,
    depth_at_x,
    plan_survey,
    swath_at,
)

FLAT_110 = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=0.0)


def test_region_default_edge_depths(region):
    assert region.edge_offset_d1 == pytest.approx(96.99265349226839, rel=1e-12)
    assert region.west_edge_depth == pytest.approx(206.9926534922684, rel=1e-12)
    assert region.tan_alpha == pytest.approx(0.02618592156918693, rel=1e-12)


def test_region_rejects_non_finite_values():
    good = dict(width_ew=2000.0, length_ns=500.0, center_depth=80.0, slope_alpha=3.0)
    for field in ("width_ew", "length_ns", "center_depth"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SurveyRegion(**{**good, field: value})


def test_region_edge_depths_scale_with_region():
    region = SurveyRegion(width_ew=2000.0, length_ns=500.0, center_depth=80.0, slope_alpha=3.0)
    assert region.edge_offset_d1 == pytest.approx(
        52.40777928304121, rel=1e-12
    )


def test_depth_at_x_anchors(region):
    assert depth_at_x(region, 0.0) == pytest.approx(206.9926534922684, rel=1e-12)
    assert depth_at_x(region, 3704.0) == pytest.approx(110.0, abs=1e-6)
    assert depth_at_x(region, 951.734) == pytest.approx(182.07062161353986, rel=1e-12)
    assert depth_at_x(region, 7408.0) == pytest.approx(13.007346507731614, rel=1e-9)


def test_depth_at_x_rejects_dry_x(region):
    with pytest.raises(SurfacedSeabedError, match="surfaced seabed"):
        depth_at_x(region, 9000.0)


def test_swath_at_uses_the_cross_track_dip(region, xdcr):
    x = 951.7973524032475
    section = swath_at(region, xdcr, x)
    assert section == swath_cross_section(depth_at_x(region, x), region.slope_alpha, xdcr)
    assert section.local_depth == pytest.approx(depth_at_x(region, x))
    assert section.total_width == pytest.approx(632.22214, abs=1e-3)


def test_first_line_default(region, xdcr):
    x1 = plan_survey(region, xdcr, 0.10).placements[0].x
    assert x1 == pytest.approx(358.52179264210827, abs=1e-6)
    # deep edge pinned to the west boundary, never short of it
    proj_deep = swath_at(region, xdcr, x1).half_deep * math.cos(math.radians(region.slope_alpha))
    assert 0.0 <= proj_deep - x1 < 1e-6


def test_first_line_flat(xdcr):
    x1 = plan_survey(FLAT_110, xdcr, 0.10).placements[0].x
    assert x1 == pytest.approx(110.0 * math.tan(math.radians(60.0)), rel=1e-12)
    assert x1 == pytest.approx(190.52558883257643, rel=1e-12)


def test_first_line_against_grid_scan(region):
    """Solve x = proj_deep(x) for a 90 deg fan by brute grid scan.

    The scan shares no code with the closed form: footprints come from a
    vectorized transcription of the law-of-sines construction.
    """
    xdcr90 = TransducerSpec(opening_angle_theta=90.0)
    ta = math.tan(math.radians(region.slope_alpha))
    sin_half = math.sin(math.radians(45.0))
    k_deep = sin_half / math.sin(math.radians(45.0 - region.slope_alpha))
    proj = k_deep * math.cos(math.radians(region.slope_alpha))

    xs = np.arange(0.0, 400.0, 5e-4)
    depths = region.west_edge_depth - xs * ta
    crossing = xs - depths * proj  # negative west of the root
    scan_root = float(xs[np.searchsorted(crossing >= 0.0, True)])

    x1 = plan_survey(region, xdcr90, 0.10).placements[0].x
    assert x1 == pytest.approx(scan_root, abs=1e-3)


def test_first_line_infeasible_when_capped(region, xdcr):
    narrow = SurveyRegion(
        width_ew=10.0, length_ns=region.length_ns, center_depth=110.0, slope_alpha=1.5
    )
    with pytest.raises(NoFeasibleStartError, match="no feasible start") as exc:
        plan_survey(narrow, xdcr, 0.10)
    assert exc.value.partial_plan is None


def test_next_line_overlap_never_undershoots(region, xdcr):
    for eta in (0.10, 0.5, 0.9):
        plan = plan_survey(region, xdcr, eta)
        for west, east in zip(plan.placements, plan.placements[1:]):
            assert eta <= east.overlap_with_previous <= eta + 1e-4


def test_next_line_flat_spacing_is_closed_form(xdcr):
    # constant width W makes the implicit spacing explicit: (1 - eta) * W
    w = 2.0 * 110.0 * math.tan(math.radians(60.0))
    for width_ew in (1000.0, 1234.5, 7408.0):
        region = SurveyRegion(
            width_ew=width_ew, length_ns=1000.0, center_depth=110.0, slope_alpha=0.0
        )
        xs = [p.x for p in plan_survey(region, xdcr, 0.10).placements]
        assert len(xs) >= 3
        for x_prev, x_next in zip(xs, xs[1:]):
            assert x_next - x_prev == pytest.approx(0.9 * w, rel=1e-9)
            assert x_next - x_prev == pytest.approx(342.9460598986376, rel=1e-9)


def test_next_line_rejects_bad_eta(region, xdcr):
    for eta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="overlap target"):
            plan_survey(region, xdcr, eta)


def test_next_line_exhausts_on_surfacing_bed(xdcr):
    # 25 deg dip dries out before the overlap can fall to 10%: the first
    # line fits, the second has no position
    steep = SurveyRegion(width_ew=400.0, length_ns=100.0, center_depth=107.0, slope_alpha=25.0)
    with pytest.raises(RegionExhaustedError, match="before the overlap can drop to 0.1") as exc:
        plan_survey(steep, xdcr, 0.10)
    assert exc.value.partial_plan.line_count == 1


def test_next_line_stalls_over_a_nearly_dry_east_edge(xdcr):
    # the east edge lies about 1e-9 m deep: a 0.9 target shrinks the step
    # toward nothing, and placement stops instead of running on
    dry_east = SurveyRegion(
        width_ew=5.399568034557236 * 1852.0,
        length_ns=3704.0,
        center_depth=1819.8511713320117,
        slope_alpha=20.0,
    )
    with pytest.raises(RegionExhaustedError, match="placement stalled at x = 10000.000 m") as exc:
        plan_survey(dry_east, xdcr, 0.9)
    assert exc.value.partial_plan.line_count == 83


def test_plan_survey_default_scenario(reference_plan, region):
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


def test_plan_survey_covers_the_region(reference_plan, region, xdcr):
    first, last = reference_plan.placements[0], reference_plan.placements[-1]
    ca = math.cos(math.radians(region.slope_alpha))
    proj_deep = swath_at(region, xdcr, first.x).half_deep * ca
    assert first.x - proj_deep <= 0.0  # west edge reached
    proj_shallow = swath_at(region, xdcr, last.x).half_shallow * ca
    assert last.x + proj_shallow >= region.width_ew  # east edge reached
    # no line east of the last is needed: the previous one fell short
    second_last = reference_plan.placements[-2]
    prev_shallow = swath_at(region, xdcr, second_last.x).half_shallow * ca
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


def test_plan_survey_refuses_a_plan_over_the_line_limit(region, xdcr, monkeypatch):
    # 1 mm deep, the 7,408 m flat region needs 2,376,117 lines of 3.5 mm swaths;
    # the count refuses it before any line is placed
    puddle = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=0.001, slope_alpha=0.0)
    with pytest.raises(TooManyLinesError, match="too many lines: the plan needs 2.376e\\+06") as exc:
        plan_survey(puddle, xdcr, 0.10)
    assert exc.value.partial_plan is None
    # the limit itself is allowed
    monkeypatch.setattr(planner, "MAX_LINES", 34)
    assert plan_survey(region, xdcr, 0.10).line_count == 34
    monkeypatch.setattr(planner, "MAX_LINES", 33)
    with pytest.raises(TooManyLinesError, match="too many lines"):
        plan_survey(region, xdcr, 0.10)
    assert issubclass(TooManyLinesError, PlanningError)


@pytest.mark.parametrize("alpha", [0.0, 1e-300])
def test_plan_survey_refuses_an_x_past_the_largest_double_as_an_overflow(alpha):
    # the second line's step carries x to inf. On a dipping bed depth_at_x(inf)
    # is -inf, but that is an overflow, not a dry bed: every dip refuses it
    # as the flat bed does, with the first line as the partial plan
    huge = SurveyRegion(
        width_ew=9.5e304 * 1852.0, length_ns=3704.0, center_depth=4.04e307, slope_alpha=alpha
    )
    fan = TransducerSpec(opening_angle_theta=120.0)
    message = "plan overflows: line 2: line x and width must be finite, got inf, nan"
    with pytest.raises(PlanOverflowError) as exc:
        plan_survey(huge, fan, 0.10)
    assert str(exc.value) == message
    assert exc.value.partial_plan.line_count == 1
    assert issubclass(PlanOverflowError, PlanningError)


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

    The first line's deep edge lies at or west of the boundary, every
    achieved overlap, recomputed from fresh swath_at widths on the floats
    the planner returns, equals the recorded one and is at least the target,
    every recorded width is the fresh swath_at width, and the closed-form
    line count is the number of lines placed.
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
        first = plan.placements[0]
        proj_deep = swath_at(region, fan, first.x).half_deep * math.cos(math.radians(alpha))
        assert first.x - proj_deep <= 0.0, (alpha, theta, eta)
        unit = swath_cross_section(1.0, alpha, fan)
        free = (1.0 - eta) * unit.total_width
        reach = unit.half_shallow * math.cos(math.radians(alpha))
        assert _line_count(region, reach, free, first.x) == plan.line_count, (alpha, theta, eta)
        for line in plan.placements:
            fresh = swath_at(region, fan, line.x).total_width
            assert line.swath_width == fresh, (alpha, theta, eta)
        for west, east in zip(plan.placements, plan.placements[1:]):
            w_mean = 0.5 * (
                swath_at(region, fan, west.x).total_width
                + swath_at(region, fan, east.x).total_width
            )
            achieved = 1.0 - (east.x - west.x) / w_mean
            assert east.overlap_with_previous == achieved, (alpha, theta, eta)
            assert achieved >= eta, (alpha, theta, eta)
    assert planned >= 150


def test_plan_survey_nudges_each_step_the_least():
    """Each line sits at the closed-form step, moved west only as far as needed.

    With K the total width at unit depth and f = (1 - eta) * K, the closed
    form puts the next line at x + f * D(x) / (1 + f * tan(alpha) / 2). The
    placed line is at or west of it, and every double east of the placed
    line up to the closed form itself misses the target overlap.
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
        ta = math.tan(math.radians(alpha))
        free = (1.0 - eta) * swath_cross_section(1.0, alpha, fan).total_width
        for west, east in zip(plan.placements, plan.placements[1:]):
            closed = west.x + free * depth_at_x(region, west.x) / (1.0 + 0.5 * free * ta)
            assert east.x <= closed, (alpha, theta, eta)
            x = closed
            for _ in range(64):
                if x == east.x:
                    break
                w_mean = 0.5 * (west.swath_width + swath_at(region, fan, x).total_width)
                assert 1.0 - (x - west.x) / w_mean < eta, (alpha, theta, eta)
                x = math.nextafter(x, -math.inf)
            else:
                raise AssertionError(f"placed line more than 64 ulps west: {(alpha, theta, eta)}")
    assert planned >= 150


@pytest.mark.parametrize("eta", [0.9, 0.99])
def test_plan_survey_swath_budget(region, xdcr, eta, monkeypatch):
    # the law of sines runs a fixed few times per plan: once for the
    # unit-depth swath and once per step of the first line's nudge; every
    # later line scales the unit swath by its depth
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return swath_cross_section(*args)

    monkeypatch.setattr(planner, "swath_cross_section", counted)
    plan = plan_survey(region, xdcr, eta)
    assert plan.line_count > 100
    assert calls <= 5


@st.composite
def scenarios(draw):
    """(region, fan, eta): alpha 0-10 deg, depth 5-500 m, width 0.05-3 NM,
    theta 30-160 deg and eta 0.02-0.9."""
    region = SurveyRegion(
        width_ew=draw(st.floats(0.05, 3.0)) * 1852.0,
        length_ns=1852.0,
        center_depth=draw(st.floats(5.0, 500.0)),
        slope_alpha=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
    )
    return region, TransducerSpec(draw(st.floats(30.0, 160.0))), draw(st.floats(0.02, 0.9))


@st.composite
def admissible_plans(draw):
    """A scenario, and the fractions of each maximal step an admissible plan takes.

    The fractions stay at or below 0.9999: a plan that takes the whole
    floating-point step can pass the greedy by the few ulps its nudges give
    up, which the theorem leaves out.
    """
    fraction = st.one_of(st.floats(0.05, 0.9999), st.floats(0.999, 0.9999))
    return *draw(scenarios()), draw(st.lists(fraction, min_size=1, max_size=8))


@settings(deadline=None, max_examples=200)
@given(admissible_plans())
def test_no_admissible_plan_has_fewer_lines(drawn):
    """The stay-ahead theorem in plan_survey's docstring, on drawn plans.

    Each admissible plan places its first line at a fraction of the
    easternmost admissible start and each later line a fraction of the way
    to the easternmost admissible next line (``oracles.admissible_bounds``),
    the fractions taken in turn, until its shallow edge reaches the east
    boundary. Each of its lines is at or west of plan_survey's line of the
    same index, and it never has fewer lines.
    """
    region, fan, eta, fractions = drawn
    try:
        placed = [line.x for line in plan_survey(region, fan, eta).placements]
    except PlanningError:
        assume(False)  # grazing fan, no feasible start or a bed that surfaces
    x1_max, g, shallow_edge = admissible_bounds(region, fan, eta)
    x = fractions[0] * x1_max
    for k, greedy_x in enumerate(placed, start=1):
        assert x <= greedy_x, (k, region, fan, eta)
        if shallow_edge(x) >= region.width_ew:
            break
        x += fractions[k % len(fractions)] * (g(x) - x)
    assert k == len(placed), (k, region, fan, eta)


@settings(deadline=None, max_examples=200)
@given(scenarios())
def test_line_count_equals_the_exact_greedy(drawn):
    """plan_survey places as many lines as the greedy worked exactly.

    ``oracles.decimal_greedy_count`` takes each whole step in 50-digit
    decimals with no ulp nudge, so an equal count shows that the nudges,
    which keep the contracts exact in floats, cost no line. Plans over 400
    lines are refused by ``_line_count`` before the first line is placed.
    """
    region, fan, eta = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "MAX_LINES", 400)
        try:
            placed = plan_survey(region, fan, eta).line_count
        except PlanningError:
            assume(False)  # over 400 lines, grazing fan, no feasible start or a dry bed
    assert placed == decimal_greedy_count(region, fan, eta, 1000), (region, fan, eta)
