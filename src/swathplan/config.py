"""Scenario configuration: one JSON document, overridable by CLI flags."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace
from typing import Any

from .geometry import PlanarSeabed, TransducerSpec
from .planner import SurveyRegion
from .units import nm_to_m


class ConfigError(ValueError):
    """Configuration file or override rejected."""


# Reference scenario: 4 x 2 NM region shoaling eastward from a 110 m center
# depth at 1.5 deg, a 120 deg opening and a 10 percent overlap target. Width
# tables default to a 120 m reference depth on the same bed, swept over eight
# headings and eight along-line distances.
DEFAULTS: dict[str, Any] = {
    "seabed": {"reference_depth_m": 120.0, "slope_alpha_deg": 1.5},
    "transducer": {"opening_angle_deg": 120.0},
    "region": {
        "width_ew_nm": 4.0,
        "length_ns_nm": 2.0,
        "center_depth_m": 110.0,
        "slope_alpha_deg": 1.5,
    },
    "eta_target": 0.10,
    "eta_min": 0.10,
    "eta_max": 0.20,
    "headings_deg": [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0],
    "distances_nm": [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1],
    "format": "csv",
    "precision": 6,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters shared by all subcommands."""

    reference_depth_m: float
    seabed_slope_alpha_deg: float
    opening_angle_deg: float
    region_width_ew_nm: float
    region_length_ns_nm: float
    center_depth_m: float
    region_slope_alpha_deg: float
    eta_target: float
    eta_min: float
    eta_max: float
    headings_deg: tuple[float, ...]
    distances_nm: tuple[float, ...]
    format: str
    precision: int

    def seabed(self) -> PlanarSeabed:
        return PlanarSeabed(
            reference_depth=self.reference_depth_m, slope_alpha=self.seabed_slope_alpha_deg
        )

    def transducer(self) -> TransducerSpec:
        return TransducerSpec(opening_angle_theta=self.opening_angle_deg)

    def region(self) -> SurveyRegion:
        return SurveyRegion(
            width_ew=nm_to_m(self.region_width_ew_nm),
            length_ns=nm_to_m(self.region_length_ns_nm),
            center_depth=self.center_depth_m,
            slope_alpha=self.region_slope_alpha_deg,
        )


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _merge(doc: dict[str, Any], raw: dict[str, Any]) -> None:
    """Overlay a user document onto the defaults, rejecting unknown keys."""
    for key, value in raw.items():
        if key not in doc:
            raise ConfigError(f"unknown config key: {key!r}")
        if isinstance(doc[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for sub, subvalue in value.items():
                if sub not in doc[key]:
                    raise ConfigError(f"unknown config key: {key}.{sub!r}")
                doc[key][sub] = _require_number(subvalue, f"{key}.{sub}")
        elif isinstance(doc[key], list):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"config key {key!r} must be a non-empty array")
            doc[key] = [_require_number(v, key) for v in value]
        elif key == "format":
            if value not in ("csv", "json"):
                raise ConfigError(f"format must be 'csv' or 'json', got {value!r}")
            doc[key] = value
        elif key == "precision":
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"precision must be a positive integer, got {value!r}")
            doc[key] = value
        else:
            doc[key] = _require_number(value, key)


def _build(doc: dict[str, Any]) -> ScenarioConfig:
    cfg = ScenarioConfig(
        reference_depth_m=doc["seabed"]["reference_depth_m"],
        seabed_slope_alpha_deg=doc["seabed"]["slope_alpha_deg"],
        opening_angle_deg=doc["transducer"]["opening_angle_deg"],
        region_width_ew_nm=doc["region"]["width_ew_nm"],
        region_length_ns_nm=doc["region"]["length_ns_nm"],
        center_depth_m=doc["region"]["center_depth_m"],
        region_slope_alpha_deg=doc["region"]["slope_alpha_deg"],
        eta_target=doc["eta_target"],
        eta_min=doc["eta_min"],
        eta_max=doc["eta_max"],
        headings_deg=tuple(doc["headings_deg"]),
        distances_nm=tuple(doc["distances_nm"]),
        format=doc["format"],
        precision=doc["precision"],
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    try:
        cfg.seabed()
        cfg.transducer()
        cfg.region()
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if not 0.0 < cfg.eta_target < 1.0:
        raise ConfigError(f"eta_target must be in (0, 1), got {cfg.eta_target}")
    if not 0.0 <= cfg.eta_min <= cfg.eta_max < 1.0:
        raise ConfigError(
            f"need 0 <= eta_min <= eta_max < 1, got [{cfg.eta_min}, {cfg.eta_max}]"
        )
    for beta in cfg.headings_deg:
        if not 0.0 <= beta < 360.0:
            raise ConfigError(f"headings must be in [0, 360) degrees, got {beta}")
    if not all(map(math.isfinite, cfg.distances_nm)):
        raise ConfigError(f"distances must be finite, got {list(cfg.distances_nm)}")


def load_config(path: str | None) -> ScenarioConfig:
    """Build a ScenarioConfig from defaults plus an optional JSON file."""
    doc = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except ValueError as err:  # JSONDecodeError, or an integer literal too long to convert
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        _merge(doc, raw)
    return _build(doc)


def apply_overrides(
    cfg: ScenarioConfig,
    *,
    alpha_deg: float | None = None,
    theta_deg: float | None = None,
    eta: float | None = None,
    center_depth_m: float | None = None,
    region_ew_nm: float | None = None,
    region_ns_nm: float | None = None,
    fmt: str | None = None,
    headings_deg: tuple[float, ...] | None = None,
    distances_nm: tuple[float, ...] | None = None,
) -> ScenarioConfig:
    """Overlay CLI flag values; --alpha-deg moves both the seabed and region dip."""
    changes: dict[str, Any] = {}
    if alpha_deg is not None:
        changes["seabed_slope_alpha_deg"] = alpha_deg
        changes["region_slope_alpha_deg"] = alpha_deg
    if theta_deg is not None:
        changes["opening_angle_deg"] = theta_deg
    if eta is not None:
        changes["eta_target"] = eta
    if center_depth_m is not None:
        changes["center_depth_m"] = center_depth_m
    if region_ew_nm is not None:
        changes["region_width_ew_nm"] = region_ew_nm
    if region_ns_nm is not None:
        changes["region_length_ns_nm"] = region_ns_nm
    if fmt is not None:
        changes["format"] = fmt
    if headings_deg is not None:
        changes["headings_deg"] = headings_deg
    if distances_nm is not None:
        changes["distances_nm"] = distances_nm
    if not changes:
        return cfg
    out = replace(cfg, **changes)
    _validate(out)
    return out
