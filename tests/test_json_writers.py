"""The template writers print what ``json.dumps(doc, indent=2)`` printed.

Each writer is held, over drawn scenarios and hand-built plans, to the
document builder it replaced (``oracles.py``): JSON output must equal the
indented dump of that document byte for byte, and CSV output the text of
the three-call-per-row writer. The plan and plot-data writers give their
text in chunks of rows, so they are held to the same at every chunk
boundary and at two rows a chunk. The layout rule the templates are built
from is held to ``json.dumps(doc, indent=2)`` on drawn nested documents.
"""

from __future__ import annotations

import json
import math
import string
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    plan_csv_text,
    plan_json_document,
    plot_data_document,
    width_rows_document,
)

from swathplan import chunks as chunking, planner
from swathplan.errors import PlanningError
from swathplan.geometry import METERS_PER_NAUTICAL_MILE, TransducerSpec
from swathplan.jsonwriter import _layout, plot_data_json, width_rows_json
from swathplan.planfile import (
    NonFiniteOutputError,
    plan_csv,
    plan_summary,
    sig_spec,
    write_plan_csv,
    write_plan_json,
)
from swathplan.planner import (
    LinePlacement,
    SurveyPlan,
    SurveyRegion,
    plan_survey,
)
from swathplan.stripes import printable_widths

PRECISIONS = st.one_of(st.integers(1, 17), st.just(767))
# drawn plans stay at or below this many lines: the planner refuses longer ones
LINE_CAP = 30_000


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def scenarios(draw):
    """(region, plan) for α 0-20°, η 0.05-0.99, 0.01-200 NM sides and 1-4,000 m depths."""
    width = draw(st.floats(0.01, 200.0)) * METERS_PER_NAUTICAL_MILE
    length = draw(st.floats(0.01, 200.0)) * METERS_PER_NAUTICAL_MILE
    depth = draw(st.floats(1.0, 4000.0))
    # steeper than this, the bed surfaces inside the region and nothing plans
    alpha_max = min(20.0, math.degrees(math.atan(2.0 * depth / width)))
    alpha = draw(st.floats(0.0, alpha_max, exclude_max=True))
    eta = draw(st.floats(0.05, 0.99))
    xdcr = TransducerSpec(draw(st.floats(30.0, 150.0)))
    region = SurveyRegion(width, length, depth, alpha)
    try:
        with mock.patch.object(planner, "MAX_LINES", LINE_CAP):
            return region, plan_survey(region, xdcr, eta)
    except PlanningError:
        assume(False)


FINITE = st.floats(-1e300, 1e300, allow_nan=False)
# None, -0.0, subnormals, 1e300 and ints beside floats, in any order
PLACEMENTS = st.lists(
    st.builds(
        LinePlacement,
        st.one_of(FINITE, st.integers(-(10**6), 10**6)),
        st.one_of(FINITE, st.just(-0.0), st.just(5e-324)),
        st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    ),
    max_size=8,
)


# nested dicts and lists, empty ones at any depth, over every kind of JSON leaf
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats())
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(string.ascii_letters + string.digits + "_.+-"), inner, max_size=4),
    ),
)


def _shape(doc):
    """The document with each leaf as its JSON text."""
    if isinstance(doc, dict):
        return {key: _shape(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_shape(item) for item in doc]
    return json.dumps(doc)


@given(DOCUMENTS)
def test_layout_is_the_indented_dump(doc):
    assert _layout(_shape(doc), "") == json.dumps(doc, indent=2)


@settings(deadline=None, max_examples=60)
@given(scenarios(), PRECISIONS)
def test_plan_writers_match_the_document_writers(scenario, sig):
    region, plan = scenario
    d1 = region.edge_offset_d1
    assert write_plan_json(plan, d1, sig) == _dump(plan_json_document(plan, d1, sig))
    assert write_plan_csv(plan, d1, sig) == plan_csv_text(plan, d1, sig)


@settings(deadline=None, max_examples=60)
@given(scenarios(), PRECISIONS)
def test_plot_data_matches_the_document_writer(scenario, sig):
    region, plan = scenario
    text = "".join(plot_data_json(region, plan, sig))
    assert text == _dump(plot_data_document(region, plan, sig))


@settings(deadline=None)
@given(PLACEMENTS, st.floats(1e-3, 1e300), FINITE, PRECISIONS)
def test_plan_writers_match_on_hand_built_plans(placements, length, d1, sig):
    plan = SurveyPlan(tuple(placements), length)
    assume(math.isfinite(plan.total_track_length))
    assert write_plan_json(plan, d1, sig) == _dump(plan_json_document(plan, d1, sig))
    assert write_plan_csv(plan, d1, sig) == plan_csv_text(plan, d1, sig)


def test_writer_properties_hold_at_two_rows_a_chunk():
    # a chunk boundary after every second row, and a last chunk of one row
    with mock.patch.object(chunking, "ROWS_PER_CHUNK", 2):
        test_plan_writers_match_the_document_writers()
        test_plot_data_matches_the_document_writer()
        test_plan_writers_match_on_hand_built_plans()


def _plan_of(lines: int) -> SurveyPlan:
    """A hand-built plan of ``lines`` lines, each printing differently."""
    placements = [
        LinePlacement(100.0 + 37.25 * i, 250.0 - i / 7.0, None if i == 0 else 0.1 + i / 1e6)
        for i in range(lines)
    ]
    return SurveyPlan(tuple(placements), 3704.0)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("batches", [1, 2])
def test_plan_and_plot_data_match_at_chunk_boundaries(extra, batches, region):
    # 1, B - 1, B, B + 1, 2B - 1, 2B and 2B + 1 lines, B rows a chunk
    rows = chunking.ROWS_PER_CHUNK
    for lines in {1, batches * rows + extra}:
        plan, d1, sig = _plan_of(lines), 12.5, 6
        assert write_plan_csv(plan, d1, sig) == plan_csv_text(plan, d1, sig)
        assert write_plan_json(plan, d1, sig) == _dump(plan_json_document(plan, d1, sig))
        text = "".join(plot_data_json(region, plan, sig))
        assert text == _dump(plot_data_document(region, plan, sig))
        # the rows come a chunk at a time, the head with the first, the tail alone
        chunks = list(plan_csv(plan, plan_summary(plan, d1, sig), sig))
        assert [chunk.count("\n") for chunk in chunks] == [
            *[min(rows, lines - start) + (start == 0) for start in range(0, lines, rows)],
            1,
        ]


def _width_json(rows, distances, sig) -> str:
    """The JSON width table of the (heading, widths) rows, as one string; the
    rows need not be monotone, so each is scanned whole."""
    head, row_text, tail = width_rows_json(distances, sig)
    spec = sig_spec(sig)
    texts = (row_text(i, h, *printable_widths(row, spec, ())) for i, (h, row) in enumerate(rows))
    return head + "".join(texts) + tail


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 360.0, exclude_max=True),
            st.lists(st.one_of(st.none(), st.floats(0.0, 1e300)), min_size=12, max_size=12),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.floats(-1e6, 1e6), max_size=12),
    PRECISIONS,
)
def test_width_rows_match_the_document_writer(rows, distances, sig):
    # an empty distance list prints each row's widths as {}; None is an ERR cell
    labels = [sig_spec(sig) % d for d in distances]
    assume(len(set(labels)) == len(labels))
    rows = [(heading, row[: len(labels)]) for heading, row in rows]
    text = _width_json(rows, distances, sig)
    assert text == _dump(width_rows_document(rows, labels, sig))


def test_width_that_prints_past_the_float_range_is_null():
    # 1.7e308 rounds to "2e+308" at one digit, which JSON cannot hold
    text = _width_json([(90.0, [1.7e308, 1.0])], [0.0, 1.0], 1)
    assert json.loads(text) == [{"heading_deg": 90.0, "widths_m": {"0": None, "1": 1.0}}]


@pytest.mark.parametrize("writer", [write_plan_csv, write_plan_json])
@pytest.mark.parametrize(
    "lines, length, sig, field",
    [
        # two lines of 1.7e308 m sum past the largest double
        ([(100.0, 50.0), (200.0, 50.0)], 1.7e308, 6, "total_track_nm"),
        # numbers that round past the largest double at one digit
        ([(100.0, 50.0)], 1.7e308, 1, "line_length_m"),
        ([(1.7e308, 50.0)], 1.0, 1, "x_m"),
        ([(-1.7e308, 50.0)], 1.0, 1, "x_m"),
        ([(1.0, 1.7e308)], 1.0, 1, "width_m"),
        # the extreme on a later line than the first
        ([(100.0, 50.0), (1.7e308, 50.0)], 1.0, 1, "x_m"),
        ([(100.0, 50.0), (-1.7e308, 50.0)], 1.0, 1, "x_m"),
        ([(1.0, 50.0), (2.0, 1.7e308)], 1.0, 1, "width_m"),
    ],
)
def test_plan_writers_refuse_numbers_that_print_non_finite(writer, lines, length, sig, field):
    plan = SurveyPlan(tuple(LinePlacement(x, width, None) for x, width in lines), length)
    with pytest.raises(NonFiniteOutputError, match=f"^{field} "):
        writer(plan, 1.0, sig)
