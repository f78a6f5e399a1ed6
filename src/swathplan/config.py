"""Scenario configuration: one JSON document, overlaid by a partial one from CLI flags.

The ``precision`` setting's number format, ``sig_spec``, lives here too:
every command that prints a number loads this module anyway.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .geometry import METERS_PER_NAUTICAL_MILE, PlanarSeabed, SurveyRegion, TransducerSpec

# No double has more than 767 significant digits and %g drops trailing zeros,
# so a larger precision prints the same text, only from a bigger buffer.
MAX_SIG_DIGITS = 767


class ConfigError(ValueError):
    """Configuration file or override rejected."""


# Reference scenario: 4 x 2 NM region shoaling eastward from a 110 m center
# depth at 1.5 deg, a 120 deg opening and a 10 percent overlap target. Width
# tables default to a 120 m reference depth on the same bed, swept over eight
# headings and eight along-line distances. An unset (None) overlap band
# follows the target: [eta, min(eta + 0.1, (1 + eta) / 2)].
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
    "eta_min": None,
    "eta_max": None,
    "headings_deg": [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0],
    "distances_nm": [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1],
    "format": "csv",
    "precision": 6,
}


class ScenarioConfig(NamedTuple):
    """Validated scenario: the model objects plus the settings shared by all subcommands."""

    seabed: PlanarSeabed
    transducer: TransducerSpec
    region: SurveyRegion
    eta_target: float
    eta_min: float
    eta_max: float
    headings_deg: tuple[float, ...]
    distances_nm: tuple[float, ...]
    format: str
    precision: int


def sig_spec(sig: int) -> str:
    """The %-format that prints every number but the overlap to ``sig`` digits (plain %g)."""
    return f"%.{min(sig, MAX_SIG_DIGITS)}g"


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
    """Overlay a user document (a file, or the flags) onto doc, rejecting unknown keys."""
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
            try:
                format(0.0, f".{value}g")  # the float formatter caps precision
            except ValueError as err:
                raise ConfigError(f"precision too big to format, got {value!r}") from err
            doc[key] = value
        else:
            doc[key] = _require_number(value, key)


def _build(doc: dict[str, Any]) -> ScenarioConfig:
    try:
        seabed = PlanarSeabed(doc["seabed"]["reference_depth_m"], doc["seabed"]["slope_alpha_deg"])
        transducer = TransducerSpec(doc["transducer"]["opening_angle_deg"])
        region = SurveyRegion(
            width_ew=doc["region"]["width_ew_nm"] * METERS_PER_NAUTICAL_MILE,
            length_ns=doc["region"]["length_ns_nm"] * METERS_PER_NAUTICAL_MILE,
            center_depth=doc["region"]["center_depth_m"],
            slope_alpha=doc["region"]["slope_alpha_deg"],
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    eta = doc["eta_target"]
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"eta_target must be in (0, 1), got {eta}")
    eta_min = eta if doc["eta_min"] is None else doc["eta_min"]
    eta_max = min(eta + 0.1, 0.5 * (1.0 + eta)) if doc["eta_max"] is None else doc["eta_max"]
    if not 0.0 <= eta_min <= eta_max < 1.0:
        raise ConfigError(f"need 0 <= eta_min <= eta_max < 1, got [{eta_min}, {eta_max}]")
    for beta in doc["headings_deg"]:
        if not 0.0 <= beta < 360.0:
            raise ConfigError(f"headings must be in [0, 360) degrees, got {beta}")
    return ScenarioConfig(
        seabed=seabed,
        transducer=transducer,
        region=region,
        eta_target=eta,
        eta_min=eta_min,
        eta_max=eta_max,
        headings_deg=tuple(doc["headings_deg"]),
        distances_nm=tuple(doc["distances_nm"]),
        format=doc["format"],
        precision=doc["precision"],
    )


def load_config(path: str | None, overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from defaults, an optional JSON file, then overrides.

    ``overrides`` is a partial document in the file's own schema (the CLI
    turns its flags into one); it is merged after the file and checked the
    same way.
    """
    # _merge writes into the section dicts and replaces every other value whole
    doc = {key: dict(v) if isinstance(v, dict) else v for key, v in DEFAULTS.items()}
    if path is not None:
        import json  # only a config file pays for the JSON reader

        try:
            with open(path, encoding="utf-8") as fh:
                # one byte order mark, as a plan file may start with, is dropped
                raw = json.loads(fh.read().removeprefix("\ufeff"))
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        # JSONDecodeError, an integer literal too long to convert, bytes that
        # are not UTF-8, or nesting too deep
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        _merge(doc, raw)
    if overrides:
        _merge(doc, overrides)
    return _build(doc)
