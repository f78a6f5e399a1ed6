"""End-to-end acceptance gate for the default survey scenario.

One test per criterion; each prints a single PASS line with its measured
margin (run with -s to see them on success). Reference numbers are frozen
anchors for the default scenario: a 120 degree fan over a 4 x 2 NM region,
110 m deep at the center, bed dipping 1.5 degrees with the deep side west.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time

from swathplan.geometry import (
    TransducerSpec,
    effective_slope,
    swath_cross_section,
    width_table,
)
from swathplan.planner import SurveyPlan, SurveyRegion, plan_survey
from swathplan.verifier import rasterize_coverage, verify_plan

from oracles import brute_force_next_line, effective_slope_numeric

NM = 1852.0

# Reference width grid (m): headings 0..315 step 45 by distances 0..2.1 NM
# step 0.3, for a 120 deg fan over a 1.5 deg bed 120 m deep at the origin.
REFERENCE_WIDTH_GRID = [
    (0.0, [415.69, 466.09, 516.49, 566.88, 617.28, 667.68, 718.08, 768.48]),
    (45.0, [415.69, 451.33, 486.96, 522.60, 558.24, 593.87, 629.51, 665.15]),
    (90.0, [415.69] * 8),
    (135.0, [415.69, 380.05, 344.41, 308.78, 273.14, 237.50, 201.86, 166.23]),
    (180.0, [415.69, 365.29, 314.89, 264.49, 214.09, 163.69, 113.29, 62.90]),
    (225.0, [415.69, 380.05, 344.41, 308.78, 273.14, 237.50, 201.86, 166.23]),
    (270.0, [415.69] * 8),
    (315.0, [415.69, 451.33, 486.96, 522.60, 558.24, 593.87, 629.51, 665.15]),
]

# Reference line anchors: (index, x in m, width in m).
REFERENCE_PLACEMENTS = [
    (0, 358.522, 686.168),
    (1, 951.734, 632.228),
    (2, 1498.31, 582.528),
    (31, 7308.43, 54.2213),
    (32, 7355.30, 49.9589),
    (33, 7398.49, 46.0316),
]


def test_criterion_1_width_table_reproduction(seabed, xdcr):
    headings = [h for h, _ in REFERENCE_WIDTH_GRID]
    distances = [i * 0.3 * NM for i in range(8)]
    start = time.perf_counter()
    grid = width_table(seabed, xdcr, headings, distances)
    elapsed = time.perf_counter() - start

    worst = 0.0
    for (_, expected_row), row in zip(REFERENCE_WIDTH_GRID, grid):
        for expected, got in zip(expected_row, row):
            assert got is not None
            worst = max(worst, abs(got - expected) / expected)
    assert worst <= 0.005
    assert elapsed < 0.1
    print(f"PASS criterion 1: 64/64 width cells within 0.5% "
          f"(worst {worst:.3%}), {elapsed * 1e3:.1f} ms")


def test_criterion_2_plan_reproduction(region, xdcr):
    start = time.perf_counter()
    plan = plan_survey(region, xdcr, 0.10)
    elapsed = time.perf_counter() - start

    assert plan.line_count == 34
    assert plan.total_track_length == 68.0
    d1 = region.edge_offset_d1
    assert abs(d1 - 96.9927) <= 1e-3

    assert abs(plan.placements[0].x - 358.522) <= 0.1
    assert abs(plan.placements[1].x - 951.734) <= 0.5
    assert abs(plan.placements[2].x - 1498.31) <= 0.5
    for idx, x_ref in ((31, 7308.43), (32, 7355.30), (33, 7398.49)):
        assert abs(plan.placements[idx].x - x_ref) <= 5.0

    worst_w = 0.0
    for idx, _, w_ref in REFERENCE_PLACEMENTS:
        worst_w = max(worst_w, abs(plan.placements[idx].swath_width - w_ref) / w_ref)
    assert worst_w <= 0.005
    assert elapsed < 0.5
    print(f"PASS criterion 2: 34 lines / 68 NM, anchors hit "
          f"(worst width dev {worst_w:.3%}), {elapsed * 1e3:.1f} ms")


def test_criterion_3_overlap_contract(reference_plan):
    overlaps = [p.overlap_with_previous for p in reference_plan.placements[1:]]
    assert len(overlaps) == 33
    for eta in overlaps:
        assert 0.10000 <= eta <= 0.10010
    spread = max(overlaps) - min(overlaps)
    print(f"PASS criterion 3: 33/33 overlaps in [0.10000, 0.10010] "
          f"(max {max(overlaps):.7f}, spread {spread:.1e})")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(1729)
    worst_dx = 0.0
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
        # a line no further east than 0.3 of the wet extent, with a successor
        starts = [i for i in range(len(lines) - 1) if lines[i].x <= 0.3 * wet]
        if not starts:
            continue
        i = rng.choice(starts)
        scanned = brute_force_next_line(region, fan, lines[i].x, eta, step=0.01)
        worst_dx = max(worst_dx, abs(scanned - lines[i + 1].x))
        solves += 1
    assert worst_dx <= 0.02

    worst_dg = 0.0
    for i in range(100):
        alpha = i * 89.9 / 99.0
        for beta in range(360):
            worst_dg = max(
                worst_dg,
                abs(effective_slope(alpha, float(beta)) - effective_slope_numeric(alpha, float(beta))),
            )
    assert worst_dg <= 1e-9
    print(f"PASS criterion 4: 100 solves agree (worst {worst_dx:.4f} m); "
          f"36000 slope cells agree (worst {worst_dg:.2e} deg)")


def test_criterion_5_raster_coverage(reference_plan, region, xdcr):
    report = rasterize_coverage(reference_plan, region, xdcr)
    assert report.resolution == 0.1
    assert report.uncovered_intervals == ()
    for ratio in report.pairwise_overlap_ratios:
        assert 0.095 <= ratio <= 0.105

    for drop in range(reference_plan.line_count):
        placements = list(reference_plan.placements)
        del placements[drop]
        mutated = SurveyPlan(
            placements=tuple(placements),
            line_length=reference_plan.line_length,
        )
        result = verify_plan(mutated, region, xdcr, 0.10, 0.20)
        assert not result.passed
        assert any(f.startswith("uncovered interval") for f in result.findings), drop
    print(f"PASS criterion 5: zero gaps at 0.1 m; ratios in "
          f"[{min(report.pairwise_overlap_ratios):.4f}, "
          f"{max(report.pairwise_overlap_ratios):.4f}]; all 34 deletions caught")


def test_criterion_6_property_suite(reference_plan, xdcr):
    rng = random.Random(65537)

    # width symmetry under beta -> 360 - beta, 1e-9 relative
    for _ in range(200):
        alpha = rng.uniform(0.0, 20.0)
        beta = rng.uniform(1e-6, 360.0 - 1e-6)
        depth = rng.uniform(5.0, 500.0)
        w_a = swath_cross_section(depth, effective_slope(alpha, beta), xdcr).total_width
        w_b = swath_cross_section(depth, effective_slope(alpha, 360.0 - beta), xdcr).total_width
        assert abs(w_a - w_b) <= 1e-9 * w_a

    # flat-bed degeneration to 2 D tan(theta/2), 1e-12 relative
    for _ in range(200):
        depth = rng.uniform(1.0, 2000.0)
        theta = rng.uniform(10.0, 170.0)
        w = swath_cross_section(depth, 0.0, TransducerSpec(theta)).total_width
        expected = 2.0 * depth * math.tan(math.radians(0.5 * theta))
        assert abs(w - expected) <= 1e-12 * expected

    # strict monotonicity along the default plan
    widths = [p.swath_width for p in reference_plan.placements]
    assert all(e < w for w, e in zip(widths, widths[1:]))
    xs = [p.x for p in reference_plan.placements]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    # grazing rejection at and beyond the geometric limit
    for gamma in (30.0, 30.5, 45.0, 89.0):
        try:
            swath_cross_section(100.0, gamma, xdcr)
        except Exception as err:
            assert "beam grazes seabed" in str(err)
        else:
            raise AssertionError(f"gamma={gamma} not rejected")
    print("PASS criterion 6: symmetry, flat degeneration, monotonicity, "
          "grazing rejection all hold")


def test_criterion_7_determinism_and_round_trip(tmp_path):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "swathplan", *argv], capture_output=True
        )

    for argv in (("plan",), ("width-table",), ("plot-data",)):
        first, second = run(*argv), run(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--out", str(plan_path)).returncode == 0
    verify = run("verify", str(plan_path))
    assert verify.returncode == 0
    assert verify.stdout.startswith(b"PASS")
    print("PASS criterion 7: byte-identical reruns; plan -> verify exits 0")
