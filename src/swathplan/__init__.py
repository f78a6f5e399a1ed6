"""Multibeam swath geometry and survey line layout over a planar sloped seabed.

The package exports its library entry points. Lower-level pieces live in the
submodules; the coverage audit is in ``swathplan.verifier``.

Each export is imported from its module on first use (PEP 562), so
``import swathplan`` loads no submodule and a command line launch compiles
only the modules its command runs.
"""

__version__ = "0.1.0"

# Each exported name and the module that holds it.
_HOME = {
    "ConfigError": "config",
    "LinePlacement": "geometry",
    "PlanParseError": "errors",
    "PlanarSeabed": "geometry",
    "PlanningError": "errors",
    "ScenarioConfig": "config",
    "SurveyPlan": "geometry",
    "SurveyRegion": "geometry",
    "TransducerSpec": "geometry",
    "load_config": "config",
    "plan_survey": "planner",
    "read_plan": "planfile",
    "swath_cross_section": "geometry",
    "width_table": "geometry",
    "write_plan_csv": "planfile",
    "write_plan_json": "planfile",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value
