"""ScenarioReport.dumps equals json.dumps(sort_keys=True, indent=2), byte for byte."""

import gc
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim.scenario import _write_json
from tests.check_report_json import reports


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


def test_every_bundled_and_worldgen_report_equals_json_dumps():
    count = 0
    for name, report in reports():
        assert report.dumps() == reference(report.to_jsonable()) + "\n", name
        count += 1
    assert count == 58


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

