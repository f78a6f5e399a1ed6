"""A fixed probe of machine speed, run between the benchmark's timed launches.

    python3 perfbench/calibrate.py

The machine the benchmark runs on changes speed under it: on a shared
two-core VM, every launch, whatever it ran, took 1.7 times as long in one
minute as in the next, and single launches vary by a fifth from second to
second.  So the benchmark runs this script, whose work never changes, before
and after every timed launch, and scales each launch's time by the probe's
reference time over the mean of the two probe times around it.

The probe does the same kinds of work as a swathplan process, so that it
slows down as they do: it starts an interpreter, imports numpy, places 296
survey lines greedily by bisection through small frozen dataclasses, and
checks their coverage with one boolean mask per line.  It imports nothing
from swathplan and prints nothing; it exits 1 if its own layout leaves a gap.
"""

import math
from dataclasses import dataclass

import numpy as np

REGION_M = 7408.0
WEST_DEPTH_M = 206.9927
ALPHA_DEG = 1.5
HALF_ANGLE_DEG = 60.0
ETA = 0.9
CELL_M = 0.1


@dataclass(frozen=True)
class Section:
    depth: float
    half_deep: float
    half_shallow: float


def section(x: float) -> Section:
    depth = WEST_DEPTH_M - x * math.tan(math.radians(ALPHA_DEG))
    s = math.sin(math.radians(HALF_ANGLE_DEG))
    return Section(
        depth,
        depth * s / math.sin(math.radians(90.0 - HALF_ANGLE_DEG - ALPHA_DEG)),
        depth * s / math.sin(math.radians(90.0 - HALF_ANGLE_DEG + ALPHA_DEG)),
    )


def bisect(west_of_root, lo: float, hi: float) -> float:
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if west_of_root(mid):
            lo = mid
        else:
            hi = mid


def overlap(x_west: float, x_east: float) -> float:
    a, b = section(x_west), section(x_east)
    mean = 0.5 * (a.half_deep + a.half_shallow + b.half_deep + b.half_shallow)
    return 1.0 - (x_east - x_west) / mean


def layout() -> list[float]:
    cos_a = math.cos(math.radians(ALPHA_DEG))
    x = bisect(lambda v: v < section(v).half_deep * cos_a, 0.0, REGION_M)
    xs = [x]
    while x + section(x).half_shallow * cos_a < REGION_M:
        s = section(x)
        x = bisect(lambda v: overlap(xs[-1], v) >= ETA, x, x + s.half_deep + s.half_shallow)
        xs.append(x)
    return xs


def coverage(xs: list[float]) -> int:
    centres = (np.arange(math.ceil(REGION_M / CELL_M)) + 0.5) * CELL_M
    cos_a = math.cos(math.radians(ALPHA_DEG))
    cover = np.zeros(centres.size, dtype=np.int32)
    for x in xs:
        s = section(x)
        cover += (centres >= x - s.half_deep * cos_a) & (centres <= x + s.half_shallow * cos_a)
    return int(np.count_nonzero(cover == 0))


if __name__ == "__main__":
    raise SystemExit(1 if coverage(layout()) else 0)
