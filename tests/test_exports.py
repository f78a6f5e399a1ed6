"""The package's exports: each loads its module on first use, not on import."""

from __future__ import annotations

import subprocess
import sys

import pytest

import swathplan
from swathplan import geometry, planner

EXPORTS = 16


def test_import_loads_no_submodule():
    code = "import sys, swathplan\nprint(sorted(m for m in sys.modules if m.startswith('swathplan.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", swathplan.__all__)
def test_every_export_is_its_home_modules_object(name):
    value = getattr(swathplan, name)
    home = value.__module__
    assert home.startswith("swathplan.")
    assert getattr(sys.modules[home], name) is value


def test_the_planner_names_the_records_geometry_holds():
    for name in ("SurveyRegion", "LinePlacement", "SurveyPlan"):
        assert getattr(planner, name) is getattr(geometry, name) is getattr(swathplan, name)


def test_star_import_binds_every_export():
    # in a child, so no export has been looked up before the star import
    code = "from swathplan import *\nprint(sorted(k for k in dir() if not k.startswith('_')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert len(swathplan.__all__) == EXPORTS
    assert proc.stdout == f"{sorted(swathplan.__all__)}\n"


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'swathplan' has no attribute 'nope'$"):
        swathplan.nope
    assert not hasattr(swathplan, "plan_surveys")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from swathplan import nope  # noqa: F401
