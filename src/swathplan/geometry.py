"""Swath geometry for a multibeam echosounder over a planar sloped seabed.

All angles cross the public interface in degrees and all lengths in meters.
Depths are positive numbers measured downward from the sea surface. The
seabed frame puts +x in the downhill direction, so depth grows along +x.
``width_table`` computes the depth under a ship on a straight line through
the frame origin (affine in the along-line distance); the planner and the
verifier each keep their own depth line across the survey region.

The model records live here too: the bed and the fan, and the survey
region, a line placement and a plan. Every command reads them, and none
of their checks is planning arithmetic, so a command that plans nothing
(``width-table``, ``verify``) builds them without compiling the planner.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from .errors import BeamGrazeError, InvalidDepthError

# Reject cross-track slopes this close (degrees) to the outer-beam angle;
# the deep-side extent diverges as the beam becomes parallel to the bed.
GRAZING_MARGIN_DEG = 1e-9

METERS_PER_NAUTICAL_MILE = 1852.0  # by definition


class _PlanarSeabed(NamedTuple):
    reference_depth: float
    slope_alpha: float


class PlanarSeabed(_PlanarSeabed):
    """Planar seabed model: depth grows linearly in the downhill (+x) direction.

    Attributes
    ----------
    reference_depth : float
        Water depth (m) at the frame origin, > 0.
    slope_alpha : float
        Dip angle of the bed (deg), 0 <= alpha < 90.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace keeps the checks

    def __new__(cls, reference_depth: float, slope_alpha: float):
        if not math.isfinite(reference_depth):
            raise ValueError(f"reference depth must be finite, got {reference_depth}")
        if reference_depth <= 0.0:
            raise ValueError(f"reference depth must be positive, got {reference_depth}")
        if not 0.0 <= slope_alpha < 90.0:
            raise ValueError(f"slope angle must be in [0, 90) degrees, got {slope_alpha}")
        return super().__new__(cls, reference_depth, slope_alpha)


class _TransducerSpec(NamedTuple):
    opening_angle_theta: float


class TransducerSpec(_TransducerSpec):
    """Multibeam transducer described by the full opening angle between outer beams."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace keeps the checks

    def __new__(cls, opening_angle_theta: float):
        if not 0.0 < opening_angle_theta < 180.0:
            raise ValueError(
                f"opening angle must be in (0, 180) degrees, got {opening_angle_theta}"
            )
        return super().__new__(cls, opening_angle_theta)

    @property
    def half_angle(self) -> float:
        """Half opening angle (deg): the tilt of each outer beam from vertical."""
        return 0.5 * self.opening_angle_theta


class _SurveyRegion(NamedTuple):
    width_ew: float  # east-west extent, m
    length_ns: float  # north-south extent, m
    center_depth: float  # depth at the region center, m
    slope_alpha: float  # east-west bed dip, deg
    edge_offset_d1: float  # depth increase from the region center to the west edge, m
    west_edge_depth: float  # m: depth(x) = west_edge_depth - x * tan_alpha
    tan_alpha: float  # tan(slope_alpha): depth falls this many m per m eastward


class SurveyRegion(_SurveyRegion):
    """Rectangular survey region. The deep side is the west edge by convention.

    Built from its four extents; the two edge depths and the dip's tangent
    derive from them, once, and every depth the planner takes reads them.
    """

    __slots__ = ()

    def __new__(cls, width_ew: float, length_ns: float, center_depth: float, slope_alpha: float):
        if not all(map(math.isfinite, (width_ew, length_ns, center_depth))):
            raise ValueError("region extents and center depth must be finite")
        if width_ew <= 0.0 or length_ns <= 0.0:
            raise ValueError("region extents must be positive")
        if center_depth <= 0.0:
            raise ValueError(f"center depth must be positive, got {center_depth}")
        if not 0.0 <= slope_alpha < 90.0:
            raise ValueError(f"slope angle must be in [0, 90) degrees, got {slope_alpha}")
        ta = math.tan(math.radians(slope_alpha))
        d1 = 0.5 * width_ew * ta
        return super().__new__(
            cls, width_ew, length_ns, center_depth, slope_alpha, d1, center_depth + d1, ta
        )

    def __getnewargs__(self):
        """The four extents __new__ takes, so copy and pickle rebuild the region."""
        return self[:4]

    # _replace rebuilds through _make: derive the edge depths and tan_alpha again
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:4]))


class _LinePlacement(NamedTuple):
    x: float
    swath_width: float  # bed-measured total width, m
    overlap_with_previous: float | None  # None on the westmost line


class LinePlacement(_LinePlacement):
    """One north-south survey line and the geometry recorded for reports."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace keeps the checks

    def __new__(cls, x: float, swath_width: float, overlap_with_previous: float | None):
        if not (math.isfinite(x) and math.isfinite(swath_width)):
            raise ValueError(f"line x and width must be finite, got {x}, {swath_width}")
        # closed: a plan file prints it to five decimals, so 0 and 1 can read back
        if overlap_with_previous is not None and not 0.0 <= overlap_with_previous <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {overlap_with_previous}")
        return super().__new__(cls, x, swath_width, overlap_with_previous)


class SurveyPlan(NamedTuple):
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


class SwathCrossSection(NamedTuple):
    """Across-track swath geometry at one ship fix.

    Extents are measured on the seabed (slope distances, m); the deep half is
    the downhill side. total_width == half_deep + half_shallow by construction.
    """

    local_depth: float
    half_deep: float
    half_shallow: float
    total_width: float


def _check_angles(alpha_deg: float, beta_deg: float) -> None:
    if not 0.0 <= alpha_deg < 90.0:
        raise ValueError(f"slope angle must be in [0, 90) degrees, got {alpha_deg}")
    if not 0.0 <= beta_deg < 360.0:
        raise ValueError(f"heading must be in [0, 360) degrees, got {beta_deg}")


def effective_slope(alpha_deg: float, beta_deg: float) -> float:
    """Cross-track bed slope gamma (deg) seen by a line at heading beta.

    Closed form:

        tan(gamma) = |sin(beta)| * tan(alpha)

    gamma runs from 0 (line straight up/downhill) to alpha (line along a
    depth contour) and is symmetric under beta -> 360 - beta. The tangent
    form keeps full relative precision at any dip, however small.
    """
    _check_angles(alpha_deg, beta_deg)
    tan_g = abs(math.sin(math.radians(beta_deg))) * math.tan(math.radians(alpha_deg))
    return math.degrees(math.atan(tan_g))


def swath_cross_section(depth: float, gamma_deg: float, xdcr: TransducerSpec) -> SwathCrossSection:
    """Across-track swath on the bed for a given local depth and cross-track slope.

    Law-of-sines extents of the two half swaths, measured on the bed:

        half_deep    = depth * (sin(theta/2) / sin(90 - theta/2 - gamma))
        half_shallow = depth * (sin(theta/2) / sin(90 - theta/2 + gamma))

    Each half is the depth times its unit-depth value, bit for bit: the
    half at depth D equals D times the half that depth 1.0 returns, so a
    caller may scale the unit-depth halves instead of calling again.

    Parameters
    ----------
    depth : float
        Local water depth (m), > 0.
    gamma_deg : float
        Cross-track bed slope (deg), >= 0.
    xdcr : TransducerSpec

    Raises
    ------
    InvalidDepthError
        On depth <= 0.
    BeamGrazeError
        Once gamma comes within GRAZING_MARGIN_DEG of 90 - theta/2, where
        the deep-side beam stops intersecting the bed.
    """
    if depth <= 0.0:
        raise InvalidDepthError(f"invalid depth: {depth:.3f} m (must be positive)")
    if gamma_deg < 0.0:
        raise ValueError(f"cross-track slope must be >= 0, got {gamma_deg}")
    half = xdcr.half_angle
    if gamma_deg >= 90.0 - half - GRAZING_MARGIN_DEG:
        raise BeamGrazeError(
            f"beam grazes seabed: cross-track slope {gamma_deg:.6g} deg at or beyond the "
            f"{90.0 - half:.6g} deg limit for a {xdcr.opening_angle_theta:g} deg opening"
        )
    sin_half = math.sin(math.radians(half))
    half_deep = depth * (sin_half / math.sin(math.radians(90.0 - half - gamma_deg)))
    half_shallow = depth * (sin_half / math.sin(math.radians(90.0 - half + gamma_deg)))
    return SwathCrossSection(
        local_depth=depth,
        half_deep=half_deep,
        half_shallow=half_shallow,
        total_width=half_deep + half_shallow,
    )


class Distances(tuple):
    """Distances (m) along a line from the frame origin: a width table's columns.

    ``ends`` holds the columns of the least and the greatest distance, found
    once when the tuple is built. It is empty when no distance is held, or
    when one is NaN, which orders nothing.
    """

    def __new__(cls, distances: Iterable[float]) -> Distances:
        self = super().__new__(cls, distances)
        ordered = self and not any(map(math.isnan, self))
        self.ends = (self.index(min(self)), self.index(max(self))) if ordered else ()
        return self


def width_table(
    seabed: PlanarSeabed,
    xdcr: TransducerSpec,
    headings: list[float],
    distances: Iterable[float],
) -> list[list[float | None]]:
    """Swath total widths (m) for every (heading, distance) pair.

    Rows follow ``headings``, columns follow ``distances`` (meters along the
    line from the frame origin; a ``Distances`` is used as it is, any other
    sequence is made one). Cells whose geometry fails (surfaced bed, grazing
    beam) or whose depth or width overflows to infinity carry None; the rest
    of the grid keeps computing.

    The depth under the ship is affine in the along-line distance, with
    slope cos(beta) * tan(alpha): a heading of 0 runs straight downhill,
    90/270 follow a depth contour, 180 runs uphill. Width is linear in
    depth, so each row computes its unit-depth width once and each cell
    scales it by that depth.

    Under round-to-nearest each step of a cell, d * cos(beta), then
    * tan(alpha), then D0 + that, then * the unit width, is monotone in the
    distance d. So across a row the depths and the widths are monotone: a
    cell fails only if a cell at one of the two ``ends`` does (the NaN that
    an infinite distance times tan 0 makes sits there too), and the widest
    cell is one of those two. A row whose end cells both hold finite widths
    is filled by one comprehension of the same expression, bit for bit,
    with no cell checked. Every other row is filled by the cell rule: a cell
    gets a width when its depth is positive and finite and the width is
    finite, and None otherwise.
    """
    if not isinstance(distances, Distances):
        distances = Distances(distances)
    d0 = seabed.reference_depth
    ta = math.tan(math.radians(seabed.slope_alpha))
    rows: list[list[float | None]] = []
    for beta in headings:
        try:
            unit_width = swath_cross_section(
                1.0, effective_slope(seabed.slope_alpha, beta), xdcr
            ).total_width
        except BeamGrazeError:
            rows.append([None] * len(distances))
            continue
        cosb = math.cos(math.radians(beta))
        ends = [d0 + distances[i] * cosb * ta for i in distances.ends]
        if ends and all(0.0 < depth and depth * unit_width < math.inf for depth in ends):
            rows.append([(d0 + dist * cosb * ta) * unit_width for dist in distances])
        else:
            # an infinite depth has no width (inf, or NaN under a zero-width
            # fan), and a huge distance or a near-grazing fan overflows one
            rows.append([
                width if 0.0 < (depth := d0 + dist * cosb * ta) < math.inf
                and (width := depth * unit_width) < math.inf else None
                for dist in distances
            ])
    return rows
