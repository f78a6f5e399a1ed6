"""Shared fixtures: the default survey scenario used across the suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swathplan
from swathplan.geometry import METERS_PER_NAUTICAL_MILE, PlanarSeabed, TransducerSpec
from swathplan.planner import SurveyRegion, plan_survey


@pytest.fixture(scope="session", autouse=True)
def _children_import_package_under_test():
    """Let `python -m swathplan` subprocesses import the package this session
    imported, also when pytest found it through its `pythonpath` setting."""
    src = str(Path(swathplan.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


# Runs `python -m swathplan ARGV` as its own fork-and-exec child, output
# discarded, and prints its exit status and peak RSS (KiB).  The kernel's
# figure for a child started by vfork, as subprocess does, includes the peak
# of the process that started it; this small process forks instead, and its
# own size is far below the CLI's.
PEAK_RSS_SCRIPT = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "swathplan", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.fixture(scope="session")
def cli_peak_rss_kib():
    """Return a function: CLI argv -> (exit status, peak RSS in KiB) of a fresh process."""

    def measure(*argv: str) -> tuple[int, int]:
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        code, rss_kib = proc.stdout.split()
        return int(code), int(rss_kib)

    return measure


@pytest.fixture(scope="session")
def xdcr():
    return TransducerSpec(opening_angle_theta=120.0)


@pytest.fixture(scope="session")
def seabed():
    # 120 m under the line origin, bed dipping 1.5 deg
    return PlanarSeabed(reference_depth=120.0, slope_alpha=1.5)


@pytest.fixture(scope="session")
def region():
    # 4 NM x 2 NM, 110 m at the center, deep side west
    return SurveyRegion(
        width_ew=4.0 * METERS_PER_NAUTICAL_MILE,
        length_ns=2.0 * METERS_PER_NAUTICAL_MILE,
        center_depth=110.0,
        slope_alpha=1.5,
    )


@pytest.fixture(scope="session")
def reference_plan(region, xdcr):
    return plan_survey(region, xdcr, 0.10)
