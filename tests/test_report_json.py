"""ScenarioReport.dumps equals json.dumps(sort_keys=True, indent=2), byte for byte."""

import gc
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim.channels import ChannelId
from afcsim.scenario import HarmMetrics, HarmRow, ScenarioReport, _write_json
from afcsim.server import CHANNEL_POSITION
from afcsim.wire import encode_channel
from tests.check_report_json import group_reports, reports


def written(value) -> str:
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


TEXT = st.text(alphabet=st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ["", '"', "\\", '"\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "€ ☃", "😀", "  ", "\ud800", "\udfff"]
)
FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e22, 1e-7, math.nan, math.inf, -math.inf])
INTS = st.integers() | st.integers(min_value=-(10**400), max_value=10**400) | st.sampled_from([10**399, -(10**399)])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=1000, derandomize=True)
@given(JSON_VALUES)
def test_writer_equals_json_dumps(value):
    assert written(value) == reference(value)


def test_writer_at_depth_and_on_empty_containers():
    deep = {}
    for level in range(150):
        deep = [deep, {"k": level}, []] if level % 2 else {"z": deep, "a": [], "m": {}}
    for value in (deep, {}, [], [{}], {"": []}, [[[[]]]], True, False, None, 0, -0.0):
        assert written(value) == reference(value)


CANONICAL = st.sampled_from(list(CHANNEL_POSITION))
# The server's own ChannelId instances, and equal instances made elsewhere.
CHANNELS = CANONICAL | CANONICAL.map(lambda ch: ChannelId(ch.bandwidth_mhz, ch.cfi, ch.variant))
EVENTS = st.fixed_dictionaries(
    {"at": FLOATS, "action": TEXT},
    optional={"ap": TEXT, "offsetS": FLOATS, "outcome": TEXT, "responseCode": TEXT,
              "grantCount": INTS, "winningKind": TEXT, "alarms": INTS},
)
DETECTIONS = st.fixed_dictionaries(
    {"at": FLOATS, "type": TEXT, "alarm": st.booleans(), "scoreM": FLOATS, "detail": TEXT},
    optional={"ap": TEXT},
)
AP_ROWS = st.fixed_dictionaries(
    {"phase": TEXT, "grantCount": INTS, "clockOffsetS": FLOATS, "complianceViolation": st.booleans()},
    optional={
        "reportedPosition": st.fixed_dictionaries({"latitude": FLOATS, "longitude": FLOATS}),
        "fixWinner": TEXT,
        "transmitChannel": CHANNELS.map(encode_channel),
        "transmitEirpDbm": FLOATS,
    },
)
REPORTS = st.builds(
    ScenarioReport,
    scenario_name=TEXT,
    seed=INTS,
    epoch_s=st.sampled_from([0.0, -1.5, 1_750_000_000.25, 253_402_300_799.0]),
    events=st.lists(EVENTS, max_size=4),
    ap_rows=st.dictionaries(TEXT, AP_ROWS, max_size=3),
    harm_rows=st.lists(
        st.builds(HarmRow, link_id=TEXT, ap_serial=TEXT, channel=CHANNELS, i_over_n_db=FLOATS, violated=st.booleans()),
        max_size=4,
    ),
    harm_metrics=st.builds(HarmMetrics, st.dictionaries(TEXT, FLOATS, max_size=4), st.integers(0, 10)),
    detections=st.lists(DETECTIONS, max_size=4),
)


@settings(max_examples=400, deadline=1000, derandomize=True)
@given(REPORTS)
def test_report_with_any_strings_equals_json_dumps(report):
    # Names, serials, link ids and details with quotes, backslashes, control
    # and non-ASCII characters and lone surrogates; any section may be empty.
    assert report.dumps() == reference(report.to_jsonable()) + "\n"


def test_report_with_empty_sections_and_rows_equals_json_dumps():
    odd = '"\\\x00\x1f\x7f\n\u00e9\u20ac\U0001f600\ud800\udfff'
    for report in (
        ScenarioReport(odd, 0, 0.0),
        ScenarioReport(odd, -(10**30), 1.0, events=[{}, {"at": 1.0}, {}], detections=[{}]),
        ScenarioReport(
            "s",
            1,
            2.0,
            events=[{odd: odd, "at": math.nan}],
            detections=[{"detail": odd, "scoreM": -math.inf, "ap": odd}],
            harm_rows=[HarmRow(odd, odd, ChannelId(320, 33, 2), math.inf, True)],
            harm_metrics=HarmMetrics({odd: -0.0, "": 5e-324}, 1),
            ap_rows={odd: {}},
        ),
    ):
        assert report.dumps() == reference(report.to_jsonable()) + "\n"


ROWS = st.lists(st.dictionaries(TEXT, JSON_VALUES, max_size=4), max_size=3)


@settings(max_examples=200, deadline=1000, derandomize=True)
@given(ROWS, ROWS)
def test_rows_with_nested_values_equal_json_dumps(events, detections):
    # run_scenario writes scalars only, but a row built in code may hold any JSON value.
    report = ScenarioReport("s", 1, 0.0, events=events, detections=detections)
    assert report.dumps() == reference(report.to_jsonable()) + "\n"


def test_a_row_value_json_cannot_write_is_a_type_error():
    for report in (
        ScenarioReport("s", 1, 0.0, events=[{"at": 1.0, "ap": {"AP-1"}}]),
        ScenarioReport("s", 1, 0.0, detections=[{"detail": [b"bytes"]}]),
    ):
        with pytest.raises(TypeError):
            reference(report.to_jsonable())
        with pytest.raises(TypeError):
            report.dumps()


def test_every_bundled_and_worldgen_report_equals_json_dumps():
    count = 0
    for name, report in reports():
        assert report.dumps() == reference(report.to_jsonable()) + "\n", name
        count += 1
    assert count == 58


def test_every_sweep_sized_group_report_equals_json_dumps():
    names = []
    for name, report in group_reports():
        assert report.dumps() == reference(report.to_jsonable()) + "\n", name
        names.append(name)
    assert len(names) == 8


def test_dumps_leaves_no_garbage_cycle():
    report = next(r for _, r in reports(worldgen_seeds=0))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        report.dumps()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

