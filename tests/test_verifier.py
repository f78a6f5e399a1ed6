"""Raster coverage accounting and the grid-scan oracle for the placement solves."""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swathplan.errors import PlanningError, SurfacedSeabedError
from swathplan import planner
from swathplan.cli import main
from swathplan.config import load_config
from swathplan.geometry import (
    SwathCrossSection,
    TransducerSpec,
    effective_slope,
    swath_cross_section,
)
from swathplan.planfile import read_plan, write_plan_csv, write_plan_json
from swathplan.planner import LinePlacement, SurveyPlan, SurveyRegion, plan_survey
from swathplan.verifier import RATIO_SLACK, _fan, audit, rasterize_coverage, verify_plan

from oracles import brute_force_next_line, exact_coverage, verify_read_whole

FLAT_110 = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=0.0)
# depth chosen so a 120 deg fan spans exactly 400 m on a flat bed
FLAT_W400 = SurveyRegion(
    width_ew=7408.0,
    length_ns=3704.0,
    center_depth=200.0 / math.tan(math.radians(60.0)),
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
    line = LinePlacement(x=100.0, swath_width=100.0, overlap_with_previous=None)
    report = rasterize_coverage(_plan_of([line], region), region, xdcr)
    assert len(report.uncovered_intervals) == 2
    (lo1, hi1), (lo2, hi2) = report.uncovered_intervals
    assert (lo1, hi1) == pytest.approx((0.0, 50.0), abs=0.2)
    assert (lo2, hi2) == pytest.approx((150.0, 400.0), abs=0.2)
    assert report.max_multiplicity == 1


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
    # cell moves a ratio by at most (coarse + fine) cells per footprint
    coarse = _raster_of(reference_plan, region, xdcr, 37040)
    fine = _raster_of(reference_plan, region, xdcr, 74080)
    assert (coarse.resolution, fine.resolution) == (0.2, 0.1)
    cos_a = math.cos(math.radians(region.slope_alpha))
    widths = [p.swath_width for p in reference_plan.placements]
    for i, (rc, rf) in enumerate(
        zip(coarse.pairwise_overlap_ratios, fine.pairwise_overlap_ratios)
    ):
        footprint_mean = 0.5 * (widths[i] + widths[i + 1]) * cos_a
        assert abs(rc - rf) < (0.2 + 0.1) / footprint_mean


def _footprint(region, xdcr, x):
    """(west end, east end) of the footprint of a line at x, from the verifier's model."""
    ta, reach_deep, reach_shallow = _fan(region, xdcr)
    depth = region.west_edge_depth - x * ta
    return x - depth * reach_deep, x + depth * reach_shallow


def _raster_of(plan, region, xdcr, n_cells):
    """The audit's raster of the plan on n_cells cells tiling the region."""
    return audit(plan.placements, region, xdcr, -math.inf, math.inf, [], n_cells)[2]


def _coverage_by_definition(plan, region, xdcr, n_cells):
    """(uncovered intervals, pairwise ratios, max multiplicity), one cell at a time.

    The n_cells cells tile the region. A cell is covered by every line whose
    horizontal footprint holds the cell's center; a pair shares the cells
    that both footprints hold.
    """
    footprints = [_footprint(region, xdcr, p.x) for p in plan.placements]
    resolution = region.width_ew / n_cells
    members = []
    for i in range(n_cells):
        center = (i + 0.5) * resolution
        members.append({k for k, (lo, hi) in enumerate(footprints) if lo <= center <= hi})
    gaps = []
    for i, lines in enumerate(members):
        if lines:
            continue
        if i and not members[i - 1]:
            start, _ = gaps.pop()
        else:
            start = i * resolution
        gaps.append((start, min((i + 1) * resolution, region.width_ew)))
    ratios = []
    for k, ((lo_w, hi_w), (lo_e, hi_e)) in enumerate(zip(footprints, footprints[1:])):
        shared = sum(1 for lines in members if k in lines and k + 1 in lines)
        ratios.append(shared * resolution / (0.5 * ((hi_w - lo_w) + (hi_e - lo_e))))
    return tuple(gaps), tuple(ratios), max(len(lines) for lines in members)


def _perturbed(plan, rng):
    """The plan with one line dropped, repeated two or three times, shifted, or
    swapped with a neighbour."""
    lines = list(plan.placements)
    i = rng.randrange(len(lines))
    kind = rng.choice(("drop", "repeat", "shift", "swap"))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines[i:i] = [lines[i]] * rng.randint(2, 3)
    elif kind == "swap":  # with the next line, or the one before the last (a lone line stays)
        j = i + 1 if i + 1 < len(lines) else i - 1
        lines[i], lines[j] = lines[j], lines[i]
    else:
        p = lines[i]
        shift = rng.uniform(-0.5, 0.5) * p.swath_width
        lines[i] = LinePlacement(p.x + shift, p.swath_width, p.overlap_with_previous)
    return SurveyPlan(placements=tuple(lines), line_length=plan.line_length)


def _assert_matches_definition(plan, region, xdcr, n_cells):
    report = _raster_of(plan, region, xdcr, n_cells)
    got = (report.uncovered_intervals, report.pairwise_overlap_ratios, report.max_multiplicity)
    assert got == _coverage_by_definition(plan, region, xdcr, n_cells)


def _random_scenario(rng):
    """(region, fan): a 0.3-1.5 NM region, flat or dipping up to 12 deg, under a 60-150 deg fan."""
    alpha = rng.choice((0.0, rng.uniform(0.0, 12.0)))
    width_ew = rng.uniform(0.3, 1.5) * 1852.0
    d1 = 0.5 * width_ew * math.tan(math.radians(alpha))
    region = SurveyRegion(
        width_ew=width_ew,
        length_ns=1852.0,
        center_depth=rng.uniform(d1 + 40.0, d1 + 150.0),
        slope_alpha=alpha,
    )
    return region, TransducerSpec(opening_angle_theta=rng.uniform(60.0, 150.0))


def test_rasterize_matches_cell_by_cell_definition(xdcr):
    rng = random.Random(509)
    for n in range(40):
        region, fan = _random_scenario(rng)
        plan = plan_survey(region, fan, rng.uniform(0.05, 0.5))
        if n % 4:
            plan = _perturbed(plan, rng)
        n_cells = rng.choice((100, 173, 400))
        _assert_matches_definition(plan, region, fan, n_cells)
        # the sweep sorts the range ends: out of order, the lines must still
        # rasterize as the definition has them
        shuffled = random.Random(n).sample(plan.placements, len(plan.placements))
        for lines in (plan.placements[::-1], shuffled):
            _assert_matches_definition(_plan_of(lines, region), region, fan, n_cells)


def test_rasterize_coverage_ignores_line_order():
    # only the pairwise ratios follow the lines' order; the gaps and the
    # deepest stack are the same for every permutation of the same lines
    rng = random.Random(2027)
    for _ in range(30):
        region, fan = _random_scenario(rng)
        plan = plan_survey(region, fan, rng.uniform(0.05, 0.9))
        for _ in range(rng.randint(0, 3)):
            plan = _perturbed(plan, rng)
        report = rasterize_coverage(plan, region, fan)
        permutations = [plan.placements[::-1]]
        for _ in range(4):
            permutations.append(rng.sample(plan.placements, len(plan.placements)))
        for lines in permutations:
            permuted = rasterize_coverage(_plan_of(lines, region), region, fan)
            assert permuted.resolution == report.resolution
            assert permuted.uncovered_intervals == report.uncovered_intervals
            assert permuted.max_multiplicity == report.max_multiplicity


def test_rasterize_footprints_narrower_than_a_cell(xdcr):
    # 0.5 m deep flat bed: 1.73 m footprints on 4 m cells with centers 2, 6, 10, ...
    region = SurveyRegion(width_ew=400.0, length_ns=100.0, center_depth=0.5, slope_alpha=0.0)
    half = -_footprint(region, xdcr, 0.0)[0]
    w = 2.0 * half
    # two footprints between centers, one around the 6 m center, and two
    # whose east and west edges land exactly on the 10 m center
    xs = (4.0, 4.5, 6.0, 10.0 + half, 10.0 - half)
    assert (xs[3] - half, xs[4] + half) == (10.0, 10.0)
    plan = _plan_of(
        [LinePlacement(x=x, swath_width=w, overlap_with_previous=None) for x in xs],
        region,
    )
    report = _raster_of(plan, region, xdcr, 100)
    assert report.resolution == 4.0
    assert report.uncovered_intervals == ((0.0, 4.0), (12.0, 400.0))
    assert report.pairwise_overlap_ratios[:3] == (0.0, 0.0, 0.0)
    assert report.pairwise_overlap_ratios[3] == pytest.approx(4.0 / w)
    assert report.max_multiplicity == 2
    _assert_matches_definition(plan, region, xdcr, 100)


def _edges_around(region, xdcr, center, east):
    """{edge: the first line position giving it} for the west (or east)
    footprint edges of the 129 doubles around the flat-bed line position
    whose edge is center."""
    side = 1 if east else 0
    lo, hi = _footprint(region, xdcr, center)
    x = center - (hi - center) if east else center + (center - lo)
    for _ in range(64):
        x = math.nextafter(x, -math.inf)
    edges = {}
    for _ in range(129):
        edges.setdefault(_footprint(region, xdcr, x)[side], x)
        x = math.nextafter(x, math.inf)
    return edges


def _xs_with_edges_around(region, xdcr, center, east):
    """Line positions whose footprint's west (or east) edge is center, and is
    the nearest double below and above center that such an edge reaches.

    On a flat bed an edge is x -+ a fixed extent, rounded. Where that extent
    ends in half an ulp of x, rounding to even skips every other double, so
    the nearest edge beside a center can be two ulps from it.
    """
    edges = _edges_around(region, xdcr, center, east)
    assert center in edges, f"no line position puts an edge on {center!r}"
    below = max(edge for edge in edges if edge < center)
    above = min(edge for edge in edges if edge > center)
    return edges[below], edges[center], edges[above]


@pytest.mark.parametrize("resolution, cells", [(4.0, (2, 50)), (0.1, (164, 2000, 3141))])
def test_rasterize_edges_one_ulp_beside_a_center(xdcr, resolution, cells):
    # for an edge on or an ulp or two beside a center, x / resolution - 0.5
    # sits within rounding of the center's index, so only the comparison with
    # the center's double decides (at 0.1 m, cell 164's own center gives just
    # under 164)
    region = SurveyRegion(width_ew=400.0, length_ns=100.0, center_depth=0.5, slope_alpha=0.0)
    n_cells = round(region.width_ew / resolution)
    assert region.width_ew / n_cells == resolution  # the cells tile the region
    lines = []
    for i in cells:
        center = (i + 0.5) * resolution
        for east in (False, True):
            for x in _xs_with_edges_around(region, xdcr, center, east):
                lines.append(LinePlacement(x=x, swath_width=1.0, overlap_with_previous=None))
    for line in lines:
        _assert_matches_definition(_plan_of([line], region), region, xdcr, n_cells)
    _assert_matches_definition(_plan_of(lines, region), region, xdcr, n_cells)


# ------------------------------------------------- the raster against exact coverage


def _assert_holds_to_exact_coverage(plan, region, xdcr):
    """The audit's report on the plan against the exact coverage of its own
    footprints (``oracles.exact_coverage``).

    Each raster ratio is within one cell over the pair's mean footprint of
    the exact ratio, and within RATIO_SLACK / 2 of it; each raster gap
    meets an exact gap; each exact gap wider than two cells meets a raster
    gap; and no cell lies in more footprints than the most that hold any
    point of the region.
    """
    report = rasterize_coverage(plan, region, xdcr)
    footprints = [_footprint(region, xdcr, p.x) for p in plan.placements]
    gaps, ratios, most = exact_coverage(footprints, region.width_ew)
    cell = Fraction(report.resolution)
    pairs = zip(footprints, footprints[1:], report.pairwise_overlap_ratios, ratios)
    for k, ((lo_w, hi_w), (lo_e, hi_e), raster, exact) in enumerate(pairs):
        mean = (Fraction(hi_w) - Fraction(lo_w) + Fraction(hi_e) - Fraction(lo_e)) / 2
        error = abs(Fraction(raster) - exact)
        # the centres' doubles each round by up to half an ulp of the width,
        # and the raster's float ratio by a few ulps of itself
        if mean:
            rounding = Fraction(math.ulp(region.width_ew)) / mean + Fraction(raster) * 2**-50
            assert error <= cell / mean + rounding, (k, float(error * mean / cell))
        assert error <= Fraction(RATIO_SLACK) / 2, (k, float(error))
    raster_gaps = [(Fraction(lo), Fraction(hi)) for lo, hi in report.uncovered_intervals]
    for lo, hi in raster_gaps:
        assert any(g_lo < hi and lo < g_hi for g_lo, g_hi in gaps), (float(lo), float(hi))
    for g_lo, g_hi in gaps:
        if g_hi - g_lo > 2 * cell:
            assert any(g_lo < hi and lo < g_hi for lo, hi in raster_gaps), (g_lo, g_hi)
    assert report.max_multiplicity <= most


@st.composite
def audited_plans(draw):
    """(plan, region, fan): a plan of plan_survey, perturbed 0-3 times.

    alpha 0 or 0-20 deg, theta 30-160 deg, eta 0.02-0.9, 0.05-3 NM wide and
    5-2,000 m deeper than D1 at the centre. Plans over 400 lines are
    refused by ``_line_count`` before the first line is placed.
    """
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    width = draw(st.floats(0.05, 3.0)) * 1852.0
    d1 = 0.5 * width * math.tan(math.radians(alpha))
    region = SurveyRegion(
        width_ew=width,
        length_ns=1852.0,
        center_depth=d1 + draw(st.floats(5.0, 2000.0)),
        slope_alpha=alpha,
    )
    fan = TransducerSpec(draw(st.floats(30.0, 160.0)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "MAX_LINES", 400)
        try:
            plan = plan_survey(region, fan, draw(st.floats(0.02, 0.9)))
        except PlanningError:
            assume(False)  # over 400 lines, a grazing fan or no feasible start
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 3))):
        if plan.placements:  # a plan whose one line was dropped stays empty
            plan = _perturbed(plan, rng)
    return plan, region, fan


@settings(deadline=None, max_examples=150)
@given(audited_plans())
def test_raster_holds_to_exact_coverage(drawn):
    plan, region, fan = drawn
    try:
        _assert_holds_to_exact_coverage(plan, region, fan)
    except SurfacedSeabedError:
        assume(False)  # a line shifted to where the bed has surfaced


@st.composite
def lines_beside_centers(draw):
    """(plan, region, fan) on a flat bed: lines each with one footprint end
    on a centre of the audit's cells or on the nearest edge below or above
    it. Each line's west end lies -1 to 0.2 footprint lengths, or -2 to 6
    cells, from the previous line's east end, so the pairs overlap, touch
    or leave gaps down to a cell or two. A line whose x lies binades
    below the centre moves its edge by less than an ulp of the centre per
    ulp of x; its edge is then the one nearest the centre."""
    width = draw(st.floats(50.0, 2000.0))
    region = SurveyRegion(
        width_ew=width, length_ns=100.0, center_depth=draw(st.floats(0.5, 100.0)), slope_alpha=0.0
    )
    fan = TransducerSpec(draw(st.floats(30.0, 160.0)))
    # every footprint on a flat bed is as wide, so every plan here gets this cell
    one = LinePlacement(x=0.5 * width, swath_width=1.0, overlap_with_previous=None)
    cell = rasterize_coverage(_plan_of([one], region), region, fan).resolution
    n_cells = round(width / cell)
    lo, hi = _footprint(region, fan, draw(st.floats(0.0, width)))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        east = draw(st.booleans())
        shift = draw(
            st.one_of(
                st.floats(-1.0, 0.2).map(lambda f: f * (hi - lo)),
                st.integers(-2, 6).map(lambda k: k * cell),
            )
        )
        target = hi + shift + (hi - lo if east else 0.0)
        i = min(max(math.floor(target / cell), 0), n_cells - 1)
        center = (i + 0.5) * cell
        edges = _edges_around(region, fan, center, east)
        nearest = {
            "below": max([e for e in edges if e < center], default=None),
            "on": center if center in edges else None,
            "above": min([e for e in edges if e > center], default=None),
        }[draw(st.sampled_from(["below", "on", "above"]))]
        if nearest is None:  # out of the walk's reach: the edge nearest the centre
            nearest = min(edges, key=lambda e: abs(e - center))
        x = edges[nearest]
        lines.append(LinePlacement(x=x, swath_width=1.0, overlap_with_previous=None))
        lo, hi = _footprint(region, fan, x)
    return _plan_of(lines, region), region, fan


@settings(deadline=None, max_examples=150)
@given(lines_beside_centers())
def test_raster_holds_to_exact_coverage_for_ends_beside_centers(drawn):
    _assert_holds_to_exact_coverage(*drawn)


def test_rasterize_memory_does_not_grow_with_cells(xdcr):
    # 200 NM at 0.1 m is 3,704,000 cells; one byte per cell would be 3.5 MiB
    region = SurveyRegion(
        width_ew=200 * 1852.0, length_ns=3704.0, center_depth=4000.0, slope_alpha=1.0
    )
    plan = plan_survey(region, xdcr, 0.10)
    tracemalloc.start()
    try:
        report = rasterize_coverage(plan, region, xdcr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.resolution == 0.1
    assert report.uncovered_intervals == ()
    assert len(report.pairwise_overlap_ratios) == len(plan.placements) - 1
    assert peak < 2**20


def test_rasterize_memory_per_line(region, xdcr):
    # the 2,945-line plan at overlap 0.99 on the reference region; per line the
    # audit keeps two ints (28 B each, 8 B each in its list: 72 B), one ratio
    # float (24 B, 8 B in its list, 8 B in the report's tuple: 40 B) and a
    # slot of the xs list (8 B; the floats are the plan's): 120 B before the
    # lists' growth headroom. A (first, stop, extent) tuple or a depth float
    # kept per line would not fit.
    plan = plan_survey(region, xdcr, 0.99)
    assert plan.line_count == 2945
    tracemalloc.start()
    try:
        report = rasterize_coverage(plan, region, xdcr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.uncovered_intervals == ()
    assert peak < 160 * plan.line_count, peak


def _verify_in_process(*argv: str) -> tuple[int, str, str]:
    """``main``'s status, stdout and stderr for ``verify`` with ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", *argv])
    return code, out.getvalue(), err.getvalue()


def test_verify_command_memory_per_line(tmp_path):
    # the 2,945-line plan at overlap 0.99, audited straight from its file
    # with no plan object alive: per line the audit keeps x (a 24 B float, 8
    # B in its list) and two cell indices (28 B ints, 8 B each in their
    # lists), 104 B before the lists' growth headroom. Reading the file's
    # text, its line list and a placement per line first came to 316 B a line.
    cfg = load_config(None, {"eta_target": 0.99})
    plan = plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    lines = plan.line_count
    path = tmp_path / "plan.csv"
    path.write_text(write_plan_csv(plan, cfg.region.edge_offset_d1, cfg.precision), "utf-8")
    del plan
    assert _verify_in_process(str(path), "--eta", "0.99")[0] == 0  # compiles the modules
    tracemalloc.start()
    try:
        code, out, _ = _verify_in_process(str(path), "--eta", "0.99")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, lines) == (0, 2945)
    assert out.startswith("PASS: 2945 lines cover the region; 2944 adjacent pairs ")
    assert peak < 160 * lines, peak


@st.composite
def plan_files(draw):
    """(config document, plan, format): a plan of plan_survey for a drawn
    scenario, as planned, perturbed 1-3 times or with its lines reversed."""
    alpha = draw(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 12.0))
    width_nm = draw(st.floats(0.3, 1.5))
    d1 = 0.5 * width_nm * 1852.0 * math.tan(math.radians(alpha))
    doc = {
        "region": {
            "width_ew_nm": width_nm,
            "length_ns_nm": 1.0,
            "center_depth_m": d1 + draw(st.floats(40.0, 150.0)),
            "slope_alpha_deg": alpha,
        },
        "transducer": {"opening_angle_deg": draw(st.floats(60.0, 150.0))},
        "eta_target": draw(st.floats(0.05, 0.5)),
    }
    cfg = load_config(None, doc)
    try:
        plan = plan_survey(cfg.region, cfg.transducer, cfg.eta_target)
    except PlanningError:  # a fan too narrow to reach the west edge from the region
        assume(False)
    kind = draw(st.sampled_from(["planned", "perturbed", "reversed"]))
    if kind == "perturbed":
        rng = random.Random(draw(st.integers(0, 2**32)))
        for _ in range(draw(st.integers(1, 3))):
            if plan.placements:  # dropping the last line leaves a file with no row
                plan = _perturbed(plan, rng)
    elif kind == "reversed":
        plan = _plan_of(plan.placements[::-1], cfg.region)
    return doc, plan, draw(st.sampled_from(["csv", "json"]))


@settings(deadline=None, max_examples=120)
@given(plan_files())
def test_verify_streamed_prints_what_the_whole_file_audit_prints(tmp_path_factory, drawn):
    # verify feeds the file's rows straight into the audit; reading the whole
    # text, then read_plan and verify_plan, must give the same status and text
    doc, plan, fmt = drawn
    tmp = tmp_path_factory.mktemp("streamed")
    config, path = tmp / "config.json", tmp / f"plan.{fmt}"
    config.write_text(json.dumps(doc), "utf-8")
    cfg = load_config(str(config))
    writer = write_plan_csv if fmt == "csv" else write_plan_json
    path.write_text(writer(plan, cfg.region.edge_offset_d1, cfg.precision), "utf-8")
    got = _verify_in_process(str(path), "--config", str(config))
    assert got == verify_read_whole(path, cfg)


def test_brute_force_flat_closed_form(xdcr):
    # W = 400 m, eta = 0.10: the spacing collapses to (1 - eta) * W = 360
    x = brute_force_next_line(FLAT_W400, xdcr, 500.0, 0.10, step=0.01)
    assert x == pytest.approx(860.0, abs=0.0100001)


def test_brute_force_matches_bisection_on_default_profile(reference_plan, region, xdcr):
    # every step of the reference plan, once solved by bisection, now in closed form
    lines = reference_plan.placements
    for west, east in zip(lines, lines[1:]):
        scanned = brute_force_next_line(region, xdcr, west.x, 0.10, step=0.01)
        assert abs(scanned - east.x) <= 0.02


def test_brute_force_near_total_overlap(xdcr):
    w = 2.0 * 110.0 * math.tan(math.radians(60.0))
    x = brute_force_next_line(FLAT_110, xdcr, 0.0, 0.99, step=0.01)
    assert x == pytest.approx(0.01 * w, abs=0.011)


def test_brute_force_agrees_over_random_profiles(xdcr):
    """Plan steps vs grid scan on 100 random (region, line, eta) draws."""
    rng = random.Random(507)
    solves = 0
    while solves < 100:
        alpha = rng.uniform(0.2, 3.0)
        theta = rng.uniform(60.0, 150.0)
        eta = rng.uniform(0.05, 0.3)
        depth = rng.uniform(40.0, 300.0)
        # west edge `depth` deep, half as wide as the bed runs before surfacing
        wet = depth / math.tan(math.radians(alpha))
        region = SurveyRegion(
            width_ew=0.5 * wet, length_ns=1000.0, center_depth=0.75 * depth, slope_alpha=alpha
        )
        fan = TransducerSpec(opening_angle_theta=theta)
        lines = plan_survey(region, fan, eta).placements
        starts = [i for i in range(len(lines) - 1) if lines[i].x <= 0.3 * wet]
        if not starts:
            continue
        i = rng.choice(starts)
        scanned = brute_force_next_line(region, fan, lines[i].x, eta, step=0.01)
        assert abs(scanned - lines[i + 1].x) <= 0.02
        solves += 1


def test_brute_force_error_cases(region, xdcr):
    with pytest.raises(ValueError, match="scan step"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 0.10, step=0.0)
    with pytest.raises(ValueError, match="overlap target"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 1.0)
    with pytest.raises(ValueError, match="no solution in bracket"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 0.10, step=500.0)
    with pytest.raises(ValueError, match="no candidate"):
        brute_force_next_line(FLAT_110, xdcr, 0.0, 0.5, step=300.0)
    with pytest.raises(SurfacedSeabedError, match="surfaced seabed"):
        brute_force_next_line(region, xdcr, 9000.0, 0.10)


def test_verify_default_plan_passes(reference_plan, region, xdcr):
    result = verify_plan(reference_plan, region, xdcr, 0.10, 0.20)
    assert result.passed
    assert result.findings == ()
    assert result.report.uncovered_intervals == ()
    # the narrowest footprint, 43 m, asks for no finer cell than 0.1 m
    assert result.report.resolution == 0.1


def test_rasterize_default_cell_is_the_audit_cell(xdcr):
    # 5 m under a flat bed the footprints are 17.3 m wide, so the cell is
    # RATIO_SLACK / 2 of that, finer than 0.1 m
    region = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=5.0, slope_alpha=0.0)
    plan = plan_survey(region, xdcr, 0.10)
    report = rasterize_coverage(plan, region, xdcr)
    assert report.resolution == pytest.approx(0.0433, abs=1e-4)
    assert verify_plan(plan, region, xdcr, 0.10, 0.20).report.resolution == report.resolution


def test_rasterize_default_cell_fits_a_narrow_region(xdcr):
    # 5 m wide: 0.1 m cells would be 50, and the raster has at least 100
    region = SurveyRegion(width_ew=5.0, length_ns=100.0, center_depth=100.0, slope_alpha=0.0)
    line = LinePlacement(x=2.5, swath_width=346.4, overlap_with_previous=None)
    report = rasterize_coverage(_plan_of([line], region), region, xdcr)
    assert report.resolution == 0.05
    assert report.uncovered_intervals == ()
    assert report.max_multiplicity == 1


TINY_FOOTPRINT_SCRIPT = """
from swathplan.geometry import TransducerSpec
from swathplan.planner import LinePlacement, SurveyPlan, SurveyRegion
from swathplan.verifier import rasterize_coverage

region = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=1e-300, slope_alpha=0.0)
line = LinePlacement(x=3704.0, swath_width=1e-300, overlap_with_previous=None)
report = rasterize_coverage(SurveyPlan((line,), 3704.0), region, TransducerSpec(120.0))
print(report.resolution == 7408.0 * 2.0**-52, report.uncovered_intervals)
"""


def test_rasterize_cell_is_at_least_a_2_52th_of_the_width():
    # a 1e-300 m footprint asks for a cell near 4e-303 m; cells that fine
    # would have indices near 2e306 that are no longer exact doubles, and the
    # raster would step among them one at a time, so this runs where a
    # timeout can stop it
    proc = subprocess.run(
        [sys.executable, "-c", TINY_FOOTPRINT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True ((0.0, 7408.0),)\n"


# 400.02 m wide: 0.1 m cells would be 4000.2, so the raster has 4001 cells
# of 400.02 / 4001 m, and a 120 deg fan 200 / tan(60 deg) m over a flat bed
# insonifies 400 m, the whole region from one line
EAST_EDGE = SurveyRegion(
    width_ew=400.02,
    length_ns=100.0,
    center_depth=200.0 / math.tan(math.radians(60.0)),
    slope_alpha=0.0,
)


def _line_ending_at(region, xdcr, east_end):
    """A line whose footprint's east end is east_end, to within rounding."""
    lo, hi = _footprint(region, xdcr, 0.0)
    line = LinePlacement(x=east_end - hi, swath_width=hi - lo, overlap_with_previous=None)
    assert _footprint(region, xdcr, line.x)[1] == pytest.approx(east_end, abs=1e-9)
    return line


def test_verify_passes_a_footprint_ending_just_past_the_east_edge(xdcr):
    # ceil(W / 0.1) cells of 0.1 m would put the last center at 400.05 m,
    # outside the region, and report a false gap [400.0, 400.02]
    width = EAST_EDGE.width_ew
    plan = _plan_of([_line_ending_at(EAST_EDGE, xdcr, width + 0.02)], EAST_EDGE)
    result = verify_plan(plan, EAST_EDGE, xdcr, 0.10, 0.20)
    assert result.passed, result.findings
    assert result.report == _raster_of(plan, EAST_EDGE, xdcr, 4001)
    _assert_matches_definition(plan, EAST_EDGE, xdcr, 4001)


def test_verify_fails_a_footprint_ending_a_cell_short_of_the_east_edge(xdcr):
    width = EAST_EDGE.width_ew
    cell = width / 4001
    plan = _plan_of([_line_ending_at(EAST_EDGE, xdcr, width - cell)], EAST_EDGE)
    result = verify_plan(plan, EAST_EDGE, xdcr, 0.10, 0.20)
    assert not result.passed
    assert result.report.uncovered_intervals == ((4000 * cell, width),)
    assert result.findings == ("uncovered interval [399.920, 400.020] m",)
    assert result.report == _raster_of(plan, EAST_EDGE, xdcr, 4001)
    _assert_matches_definition(plan, EAST_EDGE, xdcr, 4001)


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
        LinePlacement(x=190.53, swath_width=w, overlap_with_previous=None),
        LinePlacement(x=191.03, swath_width=w, overlap_with_previous=0.99),
    ]
    result = verify_plan(_plan_of(lines, region), region, xdcr, 0.10, 0.20)
    assert not result.passed
    assert any("rasterized overlap" in f for f in result.findings)
    assert result.report.pairwise_overlap_ratios[0] > 0.9


def test_verify_detects_width_ordering(reference_plan, region, xdcr):
    backwards = _plan_of(list(reversed(reference_plan.placements)), region)
    result = verify_plan(backwards, region, xdcr, 0.10, 0.20)
    assert not result.passed
    kinds = [f.partition(": ")[2].partition(" (")[0] for f in result.findings]
    assert kinds == ["not west to east", "width grows eastward"] * 33
    assert result.findings[:2] == (
        "lines 1-2: not west to east (7398.6452 -> 7355.4622 m)",
        "lines 1-2: width grows eastward (46.0178 -> 49.9443 m)",
    )


def test_verify_passes_equal_printed_widths_on_a_gentle_slope(xdcr):
    # at alpha = 1e-4 deg neighbouring widths differ by less than the sixth
    # printed digit; rounding is monotone, so they print equal, never growing
    region = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=1e-4)
    plan = plan_survey(region, xdcr, 0.9)
    printed = read_plan(write_plan_csv(plan, region.edge_offset_d1, 6), region)
    widths = [p.swath_width for p in printed.placements]
    assert any(east == west for west, east in zip(widths, widths[1:]))
    result = verify_plan(printed, region, xdcr, 0.89, 0.95)
    assert result.passed, result.findings[:3]


def test_verify_width_rule_on_a_flat_bed(xdcr):
    # equal widths are the geometry of a flat bed; a changed one is a finding
    region = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=0.0)
    plan = plan_survey(region, xdcr, 0.10)
    assert verify_plan(plan, region, xdcr, 0.10, 0.20).passed
    placements = list(plan.placements)
    placements[3] = LinePlacement(
        x=placements[3].x, swath_width=placements[3].swath_width - 1.0,
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


def test_verify_catches_a_planner_with_swapped_swath_halves(monkeypatch):
    """A fault in the planner's swath shows: the audit derives its own footprints."""
    rng = random.Random(510)
    scenarios = []
    for _ in range(9):
        center = rng.choice((110.0, 500.0))
        region = SurveyRegion(
            width_ew=rng.uniform(2.0, 4.0) * center,
            length_ns=1852.0,
            center_depth=center,
            slope_alpha=rng.uniform(2.0, 12.0),
        )
        scenarios.append((region, rng.uniform(0.10, 0.15)))
    fan = TransducerSpec(opening_angle_theta=120.0)

    def verdicts():
        return [
            verify_plan(plan_survey(region, fan, eta), region, fan, eta, eta + 0.1).passed
            for region, eta in scenarios
        ]

    sound = verdicts()

    def swapped(depth, gamma, xdcr):
        s = swath_cross_section(depth, gamma, xdcr)
        return SwathCrossSection(s.local_depth, s.half_shallow, s.half_deep, s.total_width)

    monkeypatch.setattr(planner, "swath_cross_section", swapped)
    faulty = verdicts()
    assert any(ok and not caught for ok, caught in zip(sound, faulty)), (sound, faulty)
