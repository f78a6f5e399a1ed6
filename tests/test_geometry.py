"""Cross-section geometry against hand-derived values and the vector oracle."""

from __future__ import annotations

import math
import random

import pytest

from swathplan.errors import BeamGrazeError, InvalidDepthError
from swathplan.geometry import (
    Distances,
    PlanarSeabed,
    TransducerSpec,
    effective_slope,
    swath_cross_section,
    width_table,
)

from oracles import effective_slope_numeric


def _depth_under(seabed, xdcr, beta, dist):
    """Depth under the ship, read back as a width_table cell over the unit-depth width."""
    unit = swath_cross_section(1.0, effective_slope(seabed.slope_alpha, beta), xdcr).total_width
    return width_table(seabed, xdcr, [beta], [dist])[0][0] / unit


def test_along_line_depth_is_affine_in_distance(seabed, xdcr):
    # 0.3 NM straight downhill: 120 + 555.6 * tan(1.5 deg)
    assert _depth_under(seabed, xdcr, 0.0, 555.6) == pytest.approx(134.54889802384025, rel=1e-12)


def test_along_line_depth_heading_projection(seabed, xdcr):
    downhill = _depth_under(seabed, xdcr, 0.0, 1000.0)
    uphill = _depth_under(seabed, xdcr, 180.0, 1000.0)
    contour = _depth_under(seabed, xdcr, 90.0, 1000.0)
    assert downhill > seabed.reference_depth > uphill
    assert contour == pytest.approx(seabed.reference_depth, rel=1e-15)
    # running the same distance astern mirrors the depth change
    astern = _depth_under(seabed, xdcr, 0.0, -1000.0)
    assert astern == pytest.approx(uphill, rel=1e-12)


def test_along_line_depth_rejects_dry_fix(seabed, xdcr):
    # 5 km astern on the downhill heading the bed is above the surface
    assert width_table(seabed, xdcr, [0.0], [-5000.0]) == [[None]]


def test_effective_slope_known_values():
    assert effective_slope(1.5, 0.0) == 0.0
    assert effective_slope(1.5, 45.0) == pytest.approx(1.0607813409197202, rel=1e-12)
    assert effective_slope(1.5, 90.0) == pytest.approx(1.5, rel=1e-12)
    assert effective_slope(0.0, 123.4) == 0.0


@pytest.mark.parametrize("alpha", [1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.5, 1.5, 30.0, 60.0, 89.0])
def test_effective_slope_along_a_contour_is_the_dip(alpha):
    # a line along the contour sees the full dip, at every dip however small
    assert effective_slope(alpha, 90.0) == pytest.approx(alpha, rel=1e-12, abs=0.0)


def test_effective_slope_stays_within_dip():
    rng = random.Random(421)
    for _ in range(300):
        alpha = rng.uniform(0.0, 85.0)
        beta = rng.uniform(0.0, 360.0 - 1e-9)
        gamma = effective_slope(alpha, beta)
        assert 0.0 <= gamma <= alpha + 1e-12


def test_effective_slope_symmetric_about_south():
    rng = random.Random(422)
    for _ in range(200):
        alpha = rng.uniform(0.01, 60.0)
        beta = rng.uniform(1e-6, 360.0 - 1e-6)
        a = effective_slope(alpha, beta)
        b = effective_slope(alpha, 360.0 - beta)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_effective_slope_matches_vector_oracle():
    rng = random.Random(423)
    for _ in range(200):
        alpha = rng.uniform(0.0, 89.0)
        beta = rng.uniform(0.0, 360.0 - 1e-9)
        closed = effective_slope(alpha, beta)
        numeric = effective_slope_numeric(alpha, beta)
        assert abs(closed - numeric) < 1e-9


def test_effective_slope_monotone_toward_contour():
    # gamma grows as the heading swings from downhill (0) to a contour (90)
    betas = [0.0, 10.0, 30.0, 50.0, 70.0, 90.0]
    gammas = [effective_slope(3.0, b) for b in betas]
    assert all(g0 < g1 for g0, g1 in zip(gammas, gammas[1:]))


def test_effective_slope_rejects_out_of_range():
    with pytest.raises(ValueError, match="slope angle"):
        effective_slope(90.0, 0.0)
    with pytest.raises(ValueError, match="heading"):
        effective_slope(1.0, 360.0)


def test_flat_cross_section(xdcr):
    section = swath_cross_section(120.0, 0.0, xdcr)
    assert section.total_width == pytest.approx(415.69219381653056, rel=1e-12)
    assert section.total_width == pytest.approx(
        2.0 * 120.0 * math.tan(math.radians(60.0)), rel=1e-12
    )
    assert section.half_deep == pytest.approx(section.half_shallow, rel=1e-12)


def test_sloped_cross_section(xdcr):
    section = swath_cross_section(120.0, 1.5, xdcr)
    assert section.total_width == pytest.approx(416.6918699354501, rel=1e-12)
    assert section.half_deep > section.half_shallow
    assert section.total_width == pytest.approx(
        section.half_deep + section.half_shallow, rel=1e-15
    )


def test_cross_section_at_first_line_depth(xdcr):
    section = swath_cross_section(197.6047, 1.5, xdcr)
    assert section.total_width == pytest.approx(686.1689329252804, rel=1e-12)


def test_flat_degeneration_over_random_inputs():
    rng = random.Random(424)
    for _ in range(100):
        depth = rng.uniform(1.0, 5000.0)
        theta = rng.uniform(10.0, 170.0)
        section = swath_cross_section(depth, 0.0, TransducerSpec(theta))
        expected = 2.0 * depth * math.tan(math.radians(theta / 2.0))
        assert section.total_width == pytest.approx(expected, rel=1e-12)


def test_halves_are_depth_times_the_unit_depth_halves():
    """Each half at depth D is D times the half at depth 1.0, bit for bit.

    The planner scales the unit-depth halves instead of re-solving the law
    of sines per line; this exactness keeps its widths equal to swath_at's.
    """
    rng = random.Random(2121)
    checked = 0
    for _ in range(2000):
        gamma = rng.uniform(0.0, 20.0)
        fan = TransducerSpec(rng.uniform(30.0, 160.0))
        depth = 10.0 ** rng.uniform(-3.0, 5.0)
        try:
            unit = swath_cross_section(1.0, gamma, fan)
        except BeamGrazeError:
            continue
        section = swath_cross_section(depth, gamma, fan)
        assert section.half_deep == depth * unit.half_deep, (depth, gamma, fan)
        assert section.half_shallow == depth * unit.half_shallow, (depth, gamma, fan)
        checked += 1
    assert checked >= 1800


def test_cross_section_rejects_bad_depth(xdcr):
    with pytest.raises(InvalidDepthError, match="invalid depth"):
        swath_cross_section(0.0, 1.5, xdcr)
    with pytest.raises(InvalidDepthError, match="invalid depth"):
        swath_cross_section(-3.0, 1.5, xdcr)


def test_cross_section_rejects_negative_gamma(xdcr):
    with pytest.raises(ValueError, match="cross-track slope"):
        swath_cross_section(100.0, -0.5, xdcr)


def test_cross_section_rejects_grazing_beam(xdcr):
    # the outer beam sits 60 deg off vertical, so the bed may not tilt to 30
    with pytest.raises(BeamGrazeError, match="beam grazes seabed"):
        swath_cross_section(100.0, 30.0, xdcr)
    with pytest.raises(BeamGrazeError, match="beam grazes seabed"):
        swath_cross_section(100.0, 30.0 - 1e-12, xdcr)
    section = swath_cross_section(100.0, 29.9, xdcr)
    assert section.half_deep > 100.0 * 49.0  # near-grazing blows up the deep half


def test_width_table_layout(seabed, xdcr):
    headings = [0.0, 90.0, 180.0]
    distances = [0.0, 555.6, 1111.2]
    grid = width_table(seabed, xdcr, headings, distances)
    assert len(grid) == 3 and all(len(row) == 3 for row in grid)
    for i, beta in enumerate(headings):
        gamma = effective_slope(seabed.slope_alpha, beta)
        for j, dist in enumerate(distances):
            depth = seabed.reference_depth + dist * math.cos(math.radians(beta)) * math.tan(
                math.radians(seabed.slope_alpha)
            )
            expected = swath_cross_section(depth, gamma, xdcr).total_width
            assert grid[i][j] == pytest.approx(expected, rel=1e-15)
    # distance 0 on the downhill heading is the flat-depth anchor
    assert grid[0][0] == pytest.approx(415.69219381653056, rel=1e-12)


def test_width_table_symmetric_headings(seabed, xdcr):
    distances = [0.0, 555.6, 1111.2, 2222.4]
    for beta in (30.0, 45.0, 135.0, 200.0):
        row = width_table(seabed, xdcr, [beta], distances)[0]
        mirror = width_table(seabed, xdcr, [360.0 - beta], distances)[0]
        for a, b in zip(row, mirror):
            assert a == pytest.approx(b, rel=1e-9)


def test_width_table_marks_failed_cells(xdcr):
    steep = PlanarSeabed(reference_depth=120.0, slope_alpha=45.0)
    grid = width_table(steep, xdcr, [0.0, 90.0], [0.0])
    assert grid[0][0] == pytest.approx(415.69219381653056, rel=1e-12)
    assert grid[1][0] is None  # gamma = 45 exceeds the 30 deg grazing limit

    gentle = PlanarSeabed(reference_depth=120.0, slope_alpha=1.5)
    grid = width_table(gentle, xdcr, [180.0], [0.0, 5000.0])
    assert grid[0][0] is not None
    assert grid[0][1] is None  # uphill run crosses the waterline

    # a width past the float range is no width: a distance that overflows
    # downhill, and finite inputs whose product overflows
    grid = width_table(gentle, xdcr, [0.0, 180.0], [1.0, 1e308 * 1852.0, -1e308 * 1852.0])
    assert grid[0][0] is not None and grid[1][0] is not None
    assert grid[0][1:] == [None, None] and grid[1][1:] == [None, None]
    steep = PlanarSeabed(reference_depth=120.0, slope_alpha=89.0)
    row = width_table(steep, TransducerSpec(179.9), [0.0], [0.0, 1e300 * 1852.0])[0]
    assert row[0] is not None and math.isfinite(row[0])
    assert row[1] is None


def test_distances_find_their_end_columns(seabed, xdcr):
    # unsorted, with repeats: the first column of the least and of the greatest
    assert Distances([3.0, -1.0, 5.0, -1.0, 5.0]).ends == (1, 2)
    assert Distances([]).ends == ()
    assert width_table(seabed, xdcr, [0.0], []) == [[]]
    # NaN orders nothing, so no column is an end and the row is computed a
    # cell at a time: the NaN cell is no width, the others are
    distances = [0.0, math.nan, 1000.0]
    assert Distances(distances).ends == ()
    row = width_table(seabed, xdcr, [0.0], distances)[0]
    assert row[1] is None and row[0] < row[2]


def test_model_input_validation():
    with pytest.raises(ValueError, match="opening angle"):
        TransducerSpec(opening_angle_theta=180.0)
    with pytest.raises(ValueError, match="opening angle"):
        TransducerSpec(opening_angle_theta=0.0)
    with pytest.raises(ValueError, match="reference depth"):
        PlanarSeabed(reference_depth=0.0, slope_alpha=1.0)
    with pytest.raises(ValueError, match="slope angle"):
        PlanarSeabed(reference_depth=10.0, slope_alpha=90.0)
    with pytest.raises(ValueError, match="heading"):
        width_table(PlanarSeabed(10.0, 1.0), TransducerSpec(120.0), [-1.0], [0.0])
    assert TransducerSpec(120.0).half_angle == 60.0
    for depth in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PlanarSeabed(reference_depth=depth, slope_alpha=1.0)
