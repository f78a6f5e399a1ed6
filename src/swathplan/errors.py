"""Exception types shared by the geometry, planning and verification layers.

The last two are the plan file's: ``cli.main`` reports them as status 2
without importing the plan files, which ``width-table`` never loads.
"""

from __future__ import annotations


class PlanningError(Exception):
    """Base class for geometry and placement failures.

    ``partial_plan`` carries whatever placements were committed before the
    failure so callers can print them for diagnosis; it stays None when the
    failure happened before any line was placed.
    """

    partial_plan = None


class SurfacedSeabedError(PlanningError):
    """Depth evaluated to zero or negative: the seabed breaks the surface."""


class InvalidDepthError(PlanningError):
    """A swath cross-section was requested for a non-positive water depth."""


class BeamGrazeError(PlanningError):
    """The outer beam runs parallel to the bed (or away from it) and never lands."""


class NoFeasibleStartError(PlanningError):
    """No position inside the region puts the first line's deep edge on the west boundary."""


class RegionExhaustedError(PlanningError):
    """The seabed surfaces before line placement can finish covering the region."""


class TooManyLinesError(PlanningError):
    """The plan's closed-form line count is past ``planner.MAX_LINES``."""


class PlanOverflowError(PlanningError):
    """A line's position or swath width overflows the doubles."""


class PlanParseError(ValueError):
    """Plan file rejected: wrong shape, header or field values."""


class NonFiniteOutputError(ValueError):
    """A number the output would print does not read back as a finite float."""
