"""Shared fixtures: the default survey scenario used across the suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import swathplan
from swathplan.geometry import PlanarSeabed, TransducerSpec
from swathplan.planner import SurveyRegion, plan_survey
from swathplan.units import nm_to_m


@pytest.fixture(scope="session", autouse=True)
def _children_import_package_under_test():
    """Let `python -m swathplan` subprocesses import the package this session
    imported, also when pytest found it through its `pythonpath` setting."""
    src = str(Path(swathplan.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


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
        width_ew=nm_to_m(4.0),
        length_ns=nm_to_m(2.0),
        center_depth=110.0,
        slope_alpha=1.5,
    )


@pytest.fixture(scope="session")
def reference_plan(region, xdcr):
    return plan_survey(region, xdcr, 0.10)
