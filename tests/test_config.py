"""Scenario config loading, merging and CLI-flag overlay."""

from __future__ import annotations

import copy
import json

import pytest

from swathplan import config
from swathplan.cli import parse_args
from swathplan.config import ConfigError, load_config


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.seabed.reference_depth == 120.0
    assert cfg.seabed.slope_alpha == 1.5
    assert cfg.transducer.opening_angle_theta == 120.0
    assert cfg.region.width_ew == 4.0 * 1852.0
    assert cfg.region.length_ns == 2.0 * 1852.0
    assert cfg.region.center_depth == 110.0
    assert cfg.eta_target == 0.10
    assert (cfg.eta_min, cfg.eta_max) == (0.10, 0.20)
    assert cfg.headings_deg == (0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)
    assert len(cfg.distances_nm) == 8
    assert cfg.format == "csv"
    assert cfg.precision == 6


def test_builders_produce_model_objects():
    cfg = load_config(None)
    assert cfg.seabed.reference_depth == 120.0
    assert cfg.transducer.half_angle == 60.0
    region = cfg.region
    assert region.width_ew == 7408.0
    assert region.length_ns == 3704.0


def test_partial_file_overlays_defaults(tmp_path):
    path = write_config(
        tmp_path,
        {"region": {"center_depth_m": 90.0}, "eta_target": 0.15, "format": "json"},
    )
    cfg = load_config(path)
    assert cfg.region.center_depth == 90.0
    assert cfg.eta_target == 0.15
    assert cfg.format == "json"
    # untouched keys keep their defaults
    assert cfg.region.width_ew == 4.0 * 1852.0
    assert cfg.seabed.reference_depth == 120.0


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(write_config(tmp_path, {"depth": 100.0}))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(write_config(tmp_path, {"region": {"depth_m": 100.0}}))


def test_malformed_files_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(write_config(tmp_path, [1, 2]))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.json"))


def test_invalid_values_rejected(tmp_path):
    bad_docs = [
        {"eta_target": 1.5},
        {"eta_min": 0.3, "eta_max": 0.2},
        {"eta_target": 0.3, "eta_min": 0.5},  # above the derived eta_max
        {"region": {"center_depth_m": -5.0}},
        {"transducer": {"opening_angle_deg": 200.0}},
        {"format": "xml"},
        {"precision": 0},
        {"precision": 2**31},  # beyond what the float formatter accepts
        {"precision": 10**10},
        {"headings_deg": [0.0, 400.0]},
        {"distances_nm": ["a"]},
        {"seabed": 3},
        {"eta_target": True},  # bools are not numbers here
        {"headings_deg": []},
    ]
    for doc in bad_docs:
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize(
    ("doc", "band"),
    [
        ({"eta_target": 0.3}, (0.3, 0.4)),
        ({"eta_target": 0.95}, (0.95, 0.975)),  # (1 + eta) / 2 keeps eta_max below 1
        ({"eta_target": 0.3, "eta_min": 0.25}, (0.25, 0.4)),
        ({"eta_target": 0.3, "eta_max": 0.5}, (0.3, 0.5)),
    ],
)
def test_unset_band_follows_the_target(doc, band, tmp_path):
    cfg = load_config(write_config(tmp_path, doc))
    assert (cfg.eta_min, cfg.eta_max) == pytest.approx(band, abs=1e-15)


def test_precision_up_to_the_formatter_limit_accepted(tmp_path):
    for precision in (1, 17, 120, 2**31 - 1):
        assert load_config(write_config(tmp_path, {"precision": precision})).precision == precision


def test_non_finite_values_rejected(tmp_path):
    # json.load accepts the NaN and Infinity literals that json.dumps writes
    bad_docs = [
        {"region": {"center_depth_m": float("nan")}},
        {"region": {"width_ew_nm": float("inf")}},
        {"seabed": {"reference_depth_m": float("-inf")}},
        {"eta_max": float("nan")},
        {"distances_nm": [0.0, float("inf")]},
        {"region": {"length_ns_nm": 10**400}},  # integer beyond the float range
    ]
    for doc in bad_docs:
        with pytest.raises(ConfigError, match="finite"):
            load_config(write_config(tmp_path, doc))
    for override in ({"region": {"center_depth_m": float("nan")}},
                     {"region": {"length_ns_nm": float("inf")}},
                     {"distances_nm": [float("nan")]}):
        with pytest.raises(ConfigError, match="finite"):
            load_config(None, override)


def test_overrides_replace_fields():
    out = load_config(
        None,
        {
            "transducer": {"opening_angle_deg": 90.0},
            "eta_target": 0.12,
            "region": {"center_depth_m": 95.0, "width_ew_nm": 3.0, "length_ns_nm": 1.0},
            "format": "json",
            "headings_deg": [0.0, 90.0],
            "distances_nm": [0.0, 1.0],
        },
    )
    assert out.transducer.opening_angle_theta == 90.0
    assert out.eta_target == 0.12
    assert out.region.center_depth == 95.0
    assert (out.region.width_ew, out.region.length_ns) == (3 * 1852.0, 1 * 1852.0)
    assert out.format == "json"
    assert out.headings_deg == (0.0, 90.0)
    assert out.distances_nm == (0.0, 1.0)


def test_alpha_override_moves_both_dips():
    _, given, overrides = parse_args(["plan", "--alpha-deg", "2.5"])
    out = load_config(given.get("--config"), overrides)
    assert out.seabed.slope_alpha == 2.5
    assert out.region.slope_alpha == 2.5


def test_overrides_are_validated():
    with pytest.raises(ConfigError):
        load_config(None, {"eta_target": 2.0})
    with pytest.raises(ConfigError):
        load_config(None, {"transducer": {"opening_angle_deg": 0.0}})


def test_defaults_stay_pristine(tmp_path):
    snapshot = copy.deepcopy(config.DEFAULTS)
    reference = load_config(None)
    every_key = {
        "seabed": {"reference_depth_m": 90.0, "slope_alpha_deg": 2.0},
        "transducer": {"opening_angle_deg": 100.0},
        "region": {"width_ew_nm": 3.0, "length_ns_nm": 1.0, "center_depth_m": 95.0,
                   "slope_alpha_deg": 2.0},
        "eta_target": 0.2,
        "eta_min": 0.15,
        "eta_max": 0.3,
        "headings_deg": [10.0, 20.0],
        "distances_nm": [0.5],
        "format": "json",
        "precision": 4,
    }
    load_config(write_config(tmp_path, every_key))
    flags = {**every_key, "seabed": {"reference_depth_m": 80.0}, "headings_deg": [5.0]}
    load_config(write_config(tmp_path, every_key), flags)
    with pytest.raises(ConfigError, match="unknown config key"):  # fails after a write
        load_config(None, {"seabed": {"reference_depth_m": 70.0, "depth": 1.0}})
    assert config.DEFAULTS == snapshot
    assert load_config(None) == reference
