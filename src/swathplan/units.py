"""Unit constants and conversions used at interface boundaries."""

METERS_PER_NAUTICAL_MILE = 1852.0  # by definition


def nm_to_m(nm: float) -> float:
    """Convert nautical miles to meters."""
    return nm * METERS_PER_NAUTICAL_MILE
