"""Plan serialization: CSV/JSON formats and the parse path used by verify."""

from __future__ import annotations

import json
import re

import pytest

from swathplan.errors import PlanParseError
from swathplan.planfile import (
    PLAN_CSV_HEADER,
    plan_summary,
    read_plan,
    sig_spec,
    write_plan_csv,
    write_plan_json,
)
from swathplan.planner import LinePlacement, SurveyPlan


def test_sig_spec_trims_to_significant_digits():
    assert sig_spec(6) % 415.69219381653056 == "415.692"
    assert sig_spec(6) % 7408.0 == "7408"
    assert sig_spec(6) % 0.10000019 == "0.1"


def test_csv_ratio_is_fixed_point(region):
    ratios = [0.1, 0.10000019, 0.12345678]
    placements = [LinePlacement(100.0 * (i + 1), 50.0, r) for i, r in enumerate(ratios)]
    text = write_plan_csv(SurveyPlan(tuple(placements), region.length_ns), 1.0, 6)
    assert [row.split(",")[1] for row in text.splitlines()[1:4]] == ["0.10000", "0.10000", "0.12346"]


def test_plan_summary_fields(reference_plan, region):
    d1 = region.edge_offset_d1
    summary = plan_summary(reference_plan, d1, 6)
    assert summary["lines"] == "34"
    assert summary["total_track_nm"] == "68"
    assert summary["line_length_m"] == "3704"
    assert summary["d1_m"] == "96.9927"


def test_csv_round_trip(reference_plan, region):
    d1 = region.edge_offset_d1
    text = write_plan_csv(reference_plan, d1, 6)
    lines = text.splitlines()
    assert lines[0] == PLAN_CSV_HEADER
    assert lines[1].startswith("358.522,,")
    assert lines[-1].startswith("# summary: lines=34")

    parsed = read_plan(text, region)
    assert parsed.line_count == 34
    assert parsed.placements[0].overlap_with_previous is None
    for ours, theirs in zip(reference_plan.placements, parsed.placements):
        assert theirs.x == pytest.approx(ours.x, rel=1e-5)
        assert theirs.swath_width == pytest.approx(ours.swath_width, rel=1e-5)


def test_json_round_trip(reference_plan, region):
    d1 = region.edge_offset_d1
    text = write_plan_json(reference_plan, d1, 6)
    doc = json.loads(text)
    assert len(doc["placements"]) == 34
    assert doc["placements"][0]["overlap_prev"] is None
    assert doc["placements"][1]["overlap_prev"] == pytest.approx(0.1, abs=1e-5)
    assert doc["summary"]["line_count"] == 34
    assert doc["summary"]["d1_m"] == pytest.approx(96.9927, abs=1e-4)

    parsed = read_plan(text, region)
    assert parsed.line_count == 34
    assert parsed.placements[3].x == pytest.approx(reference_plan.placements[3].x, rel=1e-5)


def test_read_plan_rejects_malformed_input(region):
    with pytest.raises(PlanParseError, match="empty plan"):
        read_plan("", region)
    with pytest.raises(PlanParseError, match="expected header"):
        read_plan("x,eta,w\n1,2,3\n", region)
    with pytest.raises(PlanParseError, match="expected 3 fields"):
        read_plan(f"{PLAN_CSV_HEADER}\n1.0,0.1\n", region)
    with pytest.raises(PlanParseError, match="not a number"):
        read_plan(f"{PLAN_CSV_HEADER}\nabc,,100.0\n", region)
    with pytest.raises(PlanParseError, match="no placement rows"):
        read_plan(f"{PLAN_CSV_HEADER}\n# summary: lines=0\n", region)
    with pytest.raises(PlanParseError, match="placements"):
        read_plan("[1, 2]", region)
    with pytest.raises(PlanParseError, match="not valid JSON"):
        read_plan("{broken", region)


@pytest.mark.parametrize(
    "text, message",
    [
        # a row refused as a placement (x = inf), then a row with no number
        (f"{PLAN_CSV_HEADER}\n1.0,,100.0\ninf,,100.0\nabc,,100.0\n", "line 3: line x and width"),
        (f"{PLAN_CSV_HEADER}\n1.0,,100.0\n2.0,7,100.0\nabc,,100.0\n", "line 3: overlap must"),
        (
            '{"placements": [{"x_m": 1e999, "width_m": 100.0}, {"x_m": "abc", "width_m": 1}]}',
            "placement 0: line x and width",
        ),
        # float() reads each of these three fields
        (f"{PLAN_CSV_HEADER}\n3_58.522,,100.0\n", "line 2 x_m: not a number: '3_58.522'"),
        (f"{PLAN_CSV_HEADER}\n1,, 686.1\n", "line 2 width_m: not a number: ' 686.1'"),
        (
            f"{PLAN_CSV_HEADER}\n\u0663\u0665\u0668,,100.0\n",
            "line 2 x_m: not a number: '\u0663\u0665\u0668'",
        ),
        ("# a note\n\n# and another\n", "no header row found"),
        (
            '{"placements": [{"x_m": true, "width_m": 100.0}]}',
            "placement 0: x_m must be a number, got true",
        ),
        ('{"placements": [1]}', "placement 0: expected an object"),
    ],
    ids=[
        "csv-inf-x", "csv-overlap", "json-inf-x", "csv-underscore", "csv-inner-space",
        "csv-non-ascii-digits", "csv-comments-only", "json-true-x", "json-not-an-object",
    ],
)
def test_read_plan_names_the_first_refused_row(region, text, message):
    with pytest.raises(PlanParseError, match=f"^{re.escape(message)}"):
        read_plan(text, region)


def test_read_plan_skips_comments_and_blanks(region, reference_plan):
    d1 = region.edge_offset_d1
    text = write_plan_csv(reference_plan, d1, 6)
    noisy = "# leading note\n\n" + text + "\n# trailing note\n"
    assert read_plan(noisy, region).line_count == 34
