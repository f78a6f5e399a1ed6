"""The model records' contract: immutable, equal by value, checked on construction."""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from swathplan.config import load_config
from swathplan.geometry import PlanarSeabed, SwathCrossSection, TransducerSpec
from swathplan.planner import LinePlacement, SurveyPlan, SurveyRegion
from swathplan.verifier import CoverageReport, VerificationResult


def _region():
    return SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0, slope_alpha=1.5)


def _report():
    return CoverageReport(
        resolution=0.1,
        uncovered_intervals=((0.0, 1.5),),
        pairwise_overlap_ratios=(0.1, 0.12),
        max_multiplicity=2,
    )


# Each record: a builder of one fresh value, and the fields it names.
RECORDS = {
    "PlanarSeabed": (lambda: PlanarSeabed(120.0, 1.5), ["reference_depth", "slope_alpha"]),
    "TransducerSpec": (lambda: TransducerSpec(120.0), ["opening_angle_theta"]),
    "SwathCrossSection": (
        lambda: SwathCrossSection(
            local_depth=100.0, half_deep=175.0, half_shallow=171.0, total_width=346.0
        ),
        ["local_depth", "half_deep", "half_shallow", "total_width"],
    ),
    "SurveyRegion": (
        _region,
        ["width_ew", "length_ns", "center_depth", "slope_alpha", "edge_offset_d1",
         "west_edge_depth", "tan_alpha"],
    ),
    "LinePlacement": (
        lambda: LinePlacement(500.0, 380.0, 0.1),
        ["x", "swath_width", "overlap_with_previous"],
    ),
    "SurveyPlan": (
        lambda: SurveyPlan((LinePlacement(1.0, 2.0, None), LinePlacement(2.0, 2.0, 0.5)), 3.0),
        ["placements", "line_length"],
    ),
    "ScenarioConfig": (
        lambda: load_config(None),
        ["seabed", "transducer", "region", "eta_target", "eta_min", "eta_max",
         "headings_deg", "distances_nm", "format", "precision"],
    ),
    "CoverageReport": (
        _report,
        ["resolution", "uncovered_intervals", "pairwise_overlap_ratios", "max_multiplicity"],
    ),
    "VerificationResult": (
        lambda: VerificationResult(passed=False, findings=("a", "b"), report=_report()),
        ["passed", "findings", "report"],
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_fields_cannot_be_set(name):
    build, fields = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_equal_by_value(name):
    build, fields = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert f"{name}(" in repr(first)
    assert all(f"{field}=" in repr(first) for field in fields)


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_survive_copy_and_pickle(name):
    record = RECORDS[name][0]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_region_keyword_construction_and_derived_depths():
    for alpha in (0.0, 1e-7, 1.5, 12.0, 89.9):
        region = SurveyRegion(width_ew=7408.0, length_ns=3704.0, center_depth=110.0,
                              slope_alpha=alpha)
        d1 = 0.5 * 7408.0 * math.tan(math.radians(alpha))
        assert (region.width_ew, region.length_ns) == (7408.0, 3704.0)
        assert (region.center_depth, region.slope_alpha) == (110.0, alpha)
        assert region.edge_offset_d1.hex() == d1.hex()
        assert region.west_edge_depth.hex() == (110.0 + d1).hex()
    assert SurveyRegion(7408.0, 3704.0, 110.0, 1.5) == _region()


NAN, INF = math.nan, math.inf
INVALID = [
    (PlanarSeabed, (NAN, 1.5), "reference depth must be finite, got nan"),
    (PlanarSeabed, (INF, 1.5), "reference depth must be finite, got inf"),
    (PlanarSeabed, (0.0, 1.5), "reference depth must be positive, got 0.0"),
    (PlanarSeabed, (-5.0, 1.5), "reference depth must be positive, got -5.0"),
    (PlanarSeabed, (120.0, -1.0), "slope angle must be in [0, 90) degrees, got -1.0"),
    (PlanarSeabed, (120.0, 90.0), "slope angle must be in [0, 90) degrees, got 90.0"),
    (PlanarSeabed, (120.0, NAN), "slope angle must be in [0, 90) degrees, got nan"),
    (TransducerSpec, (0.0,), "opening angle must be in (0, 180) degrees, got 0.0"),
    (TransducerSpec, (180.0,), "opening angle must be in (0, 180) degrees, got 180.0"),
    (TransducerSpec, (NAN,), "opening angle must be in (0, 180) degrees, got nan"),
    (SurveyRegion, (NAN, 1.0, 1.0, 1.0), "region extents and center depth must be finite"),
    (SurveyRegion, (1.0, INF, 1.0, 1.0), "region extents and center depth must be finite"),
    (SurveyRegion, (1.0, 1.0, -INF, 1.0), "region extents and center depth must be finite"),
    (SurveyRegion, (0.0, 1.0, 1.0, 1.0), "region extents must be positive"),
    (SurveyRegion, (1.0, -1.0, 1.0, 1.0), "region extents must be positive"),
    (SurveyRegion, (1.0, 1.0, 0.0, 1.0), "center depth must be positive, got 0.0"),
    (SurveyRegion, (1.0, 1.0, 1.0, 90.0), "slope angle must be in [0, 90) degrees, got 90.0"),
    (SurveyRegion, (1.0, 1.0, 1.0, NAN), "slope angle must be in [0, 90) degrees, got nan"),
    (LinePlacement, (NAN, 100.0, None), "line x and width must be finite, got nan, 100.0"),
    (LinePlacement, (1.0, -INF, 0.5), "line x and width must be finite, got 1.0, -inf"),
    (LinePlacement, (1.0, 100.0, -0.1), "overlap must be in [0, 1], got -0.1"),
    (LinePlacement, (1.0, 100.0, 1.5), "overlap must be in [0, 1], got 1.5"),
    (LinePlacement, (1.0, 100.0, NAN), "overlap must be in [0, 1], got nan"),
]


@pytest.mark.parametrize(
    "cls, args, message", INVALID, ids=[f"{c.__name__}-{m[:20]}" for c, _, m in INVALID]
)
def test_invalid_record_values_rejected(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_overlap_that_prints_as_0_or_1_is_a_placement():
    # a plan file prints the overlap to five decimals: 4e-6 reads back as 0.0
    assert LinePlacement(1.0, 100.0, 0.0).overlap_with_previous == 0.0
    assert LinePlacement(1.0, 100.0, 1.0).overlap_with_previous == 1.0


# (record, a field set to a value its constructor refuses, the message)
REPLACED = [
    (lambda: PlanarSeabed(120.0, 1.5), {"reference_depth": -5.0},
     "reference depth must be positive, got -5.0"),
    (lambda: TransducerSpec(120.0), {"opening_angle_theta": 180.0},
     "opening angle must be in (0, 180) degrees, got 180.0"),
    (_region, {"center_depth": 0.0}, "center depth must be positive, got 0.0"),
    (lambda: LinePlacement(1.0, 2.0, None), {"x": NAN},
     "line x and width must be finite, got nan, 2.0"),
    (lambda: LinePlacement(1.0, 2.0, 0.5), {"overlap_with_previous": 1.5},
     "overlap must be in [0, 1], got 1.5"),
]


@pytest.mark.parametrize(
    "build, fields, message",
    REPLACED,
    ids=[f"{type(build()).__name__}-{','.join(fields)}" for build, fields, _ in REPLACED],
)
def test_replace_and_make_keep_the_checks(build, fields, message):
    record = build()
    with pytest.raises(ValueError) as exc:
        record._replace(**fields)
    assert str(exc.value) == message
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **fields}.values())


@pytest.mark.parametrize(
    "field, value",
    [("width_ew", 100.0), ("length_ns", 50.0), ("center_depth", 2000.0), ("slope_alpha", 0.0)],
)
def test_replaced_region_equals_one_built_afresh(field, value):
    extents = {"width_ew": 7408.0, "length_ns": 3704.0, "center_depth": 110.0, "slope_alpha": 1.5}
    fresh = SurveyRegion(**{**extents, field: value})
    assert _region()._replace(**{field: value}) == fresh
    assert SurveyRegion._make(fresh) == fresh
