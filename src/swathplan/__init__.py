"""Multibeam swath geometry and survey line layout over a planar sloped seabed.

The package exports its library entry points. Lower-level pieces live in the
submodules; the coverage audit is in ``swathplan.verifier``.
"""

from .config import ConfigError, ScenarioConfig, load_config
from .errors import PlanningError
from .geometry import PlanarSeabed, TransducerSpec, swath_cross_section, width_table
from .planfile import PlanParseError, read_plan, write_plan_csv, write_plan_json
from .planner import LinePlacement, SurveyPlan, SurveyRegion, plan_survey

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "LinePlacement",
    "PlanParseError",
    "PlanarSeabed",
    "PlanningError",
    "ScenarioConfig",
    "SurveyPlan",
    "SurveyRegion",
    "TransducerSpec",
    "load_config",
    "plan_survey",
    "read_plan",
    "swath_cross_section",
    "width_table",
    "write_plan_csv",
    "write_plan_json",
]
