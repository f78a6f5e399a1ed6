"""Numpy reference oracles for the closed forms the package computes.

Neither is called by the package: ``effective_slope_numeric`` builds the
cross-track slope from explicit vectors, and ``brute_force_next_line``
grid-scans the next line's position on the audit's own footprints. The
tests hold the library to both.
"""

from __future__ import annotations

import math

import numpy as np

from swathplan.geometry import TransducerSpec, _check_angles
from swathplan.planner import SurveyRegion
from swathplan.verifier import _depths_and_reaches


def effective_slope_numeric(alpha_deg: float, beta_deg: float) -> float:
    """Gamma (deg) from explicit vector construction; oracle for effective_slope.

    Builds the across-track direction n3 = n1 x n2 (line direction crossed
    with the bed normal) and measures its angle to its own horizontal
    projection n4. Returns 0 by convention where a projection degenerates
    to zero length.
    """
    _check_angles(alpha_deg, beta_deg)
    a = math.radians(alpha_deg)
    b = math.radians(beta_deg)
    n1 = np.array([math.cos(b), math.sin(b), 0.0])
    n2 = np.array([math.sin(a), 0.0, math.cos(a)])
    n3 = np.cross(n1, n2)
    n4 = n3 * np.array([1.0, 1.0, 0.0])
    norm3 = float(np.linalg.norm(n3))
    norm4 = float(np.linalg.norm(n4))
    if norm3 == 0.0 or norm4 == 0.0:
        return 0.0
    cos_g = float(np.dot(n3, n4)) / (norm3 * norm4)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_g))))


def brute_force_next_line(
    region: SurveyRegion,
    xdcr: TransducerSpec,
    x_prev: float,
    eta_target: float,
    step: float = 0.01,
) -> float:
    """Grid-scan oracle for the planner's next-line solve.

    Walks candidates x_prev + k*step downward from the far end of the
    bracket (one previous-line width east) and returns the first whose
    achieved overlap reaches eta_target. Widths come from the audit's own
    footprints, so the oracle shares nothing with the planner's solver path.
    Agreement with the closed form is within one step.
    """
    if step <= 0.0:
        raise ValueError(f"scan step must be positive, got {step}")
    if not 0.0 < eta_target < 1.0:
        raise ValueError(f"overlap target must be in (0, 1), got {eta_target}")
    (depth_prev,), ta, reach_deep, reach_shallow = _depths_and_reaches(region, xdcr, [x_prev])
    # the planner spaces lines on bed-measured widths: footprints over cos(alpha)
    k_width = (reach_deep + reach_shallow) / math.cos(math.radians(region.slope_alpha))
    w_prev = depth_prev * k_width
    n = int(math.floor(w_prev / step + 1e-12))
    if n < 1:
        raise ValueError(
            f"no solution in bracket: scan step {step:g} m exceeds the "
            f"{w_prev:g} m bracket"
        )
    xs = x_prev + np.arange(1, n + 1) * step
    depths = depth_prev - (xs - x_prev) * ta
    widths = depths * k_width
    etas = 1.0 - (xs - x_prev) / (0.5 * (w_prev + widths))
    hits = np.nonzero((depths > 0.0) & (etas >= eta_target))[0]
    if hits.size == 0:
        raise ValueError(
            f"no solution in bracket: no candidate reaches overlap {eta_target:g}"
        )
    # etas fall with x, so the last ascending hit is the first one met
    # when walking down from the far end
    return float(xs[hits[-1]])
