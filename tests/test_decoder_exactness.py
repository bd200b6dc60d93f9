"""Exactness gate for the decoders' type-first field reads.

The shipped getters and decoders read the exact type a JSON document holds
first and fall back to the general checks for anything else.
tests/reference_wire.py keeps the decoders as they were before that change.
On each input below, the two must agree: both return equal objects (equal
reprs too, so 0 and 0.0 differ), or both raise the same exception type with
the same text and the same field.

The inputs are the fuzz gate's base documents and every single edit of
them: each edge number, each value of another type and a deletion at every
path. Pairs of edits check the order of the checks: with two bad fields,
the error must name the one the reference names.
"""

import copy
from itertools import combinations

import pytest

from afcsim import scenario, wire
from tests import reference_wire as reference
from tests.test_fuzz import (
    DATABASE,
    DELETE,
    EDGE_NUMBERS,
    OTHER_TYPES,
    POLICY,
    PROPAGATION,
    PROTECTION,
    REQUEST,
    SCENARIO,
    _numeric_paths,
    _paths,
    _put,
    as_text,
)

# (base document, shipped decoder, reference decoder), each decoder taking the document.
BOUNDARIES = {
    "scenario": (
        SCENARIO,
        lambda doc: scenario.load_scenario(as_text(doc)),
        lambda doc: reference.load_scenario(as_text(doc)),
    ),
    "request": (REQUEST, wire.decode_request, reference.decode_request),
    "database": (DATABASE, wire.decode_database, reference.decode_database),
    "policy": (POLICY, wire.decode_policy, reference.decode_policy),
    "propagation": (PROPAGATION, wire.decode_propagation, reference.decode_propagation),
    "protection": (PROTECTION, wire.decode_protection, reference.decode_protection),
}

SINGLE_VALUES = EDGE_NUMBERS + OTHER_TYPES + (DELETE,)


def _edited(base, *edits):
    doc = copy.deepcopy(base)
    for path, value in edits:
        _put(doc, path, value)
    return doc


def _outcome(decode, doc):
    """What decode makes of doc: its value, or its exception's type, text and field."""
    try:
        value = decode(doc)
    except Exception as e:  # every exception is compared, not only the expected ones
        return ("raised", type(e), str(e), getattr(e, "field", None), getattr(e, "request_id", None))
    return ("returned", value, repr(value))


def _mismatches(kind, docs) -> list[str]:
    _, shipped, ref = BOUNDARIES[kind]
    found = []
    for label, doc in docs:
        got, want = _outcome(shipped, doc), _outcome(ref, doc)
        if got != want:
            found.append(f"{label}: shipped {got!r} but reference {want!r}")
    return found


def _single_edits(base):
    yield "base", base
    for path in _paths(base):
        for value in SINGLE_VALUES:
            shown = "delete" if value is DELETE else repr(value)[:12]
            yield f"{'.'.join(map(str, path))} = {shown}", _edited(base, (path, value))


def _apart(p, q) -> bool:
    return p[: len(q)] != q and q[: len(p)] != p


def _edit_pairs(base):
    # Two fields of the wrong type, and a number out of range before or after
    # one. Nested paths are skipped: the outer edit removes the inner path.
    paths = list(_paths(base))
    for p, q in combinations(paths, 2):
        if _apart(p, q):
            yield f"{p} and {q} = 'x'", _edited(base, (p, "x"), (q, "x"))
    for p in _numeric_paths(base):
        for q in paths:
            if _apart(p, q):
                yield f"{p} = 1e308, {q} = 'x'", _edited(base, (p, 1e308), (q, "x"))


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_single_edits_decode_as_the_reference_does(kind):
    base = BOUNDARIES[kind][0]
    assert _mismatches(kind, _single_edits(base)) == []


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_two_bad_fields_raise_what_the_reference_raises(kind):
    base = BOUNDARIES[kind][0]
    assert _mismatches(kind, _edit_pairs(base)) == []


def test_the_edits_reach_every_outcome():
    # A gate whose inputs all decode, or all fail alike, would check nothing.
    texts = set()
    for kind, (base, _, ref) in BOUNDARIES.items():
        outcomes = [_outcome(ref, doc) for _, doc in _single_edits(base)]
        assert any(o[0] == "returned" for o in outcomes), kind
        texts.update(o[2].split(": ", 1)[-1] for o in outcomes if o[0] == "raised")
    for text in ("missing field", "must be a number", "integer too large for a float", "must be a string"):
        assert text in texts


def test_get_nums_reads_as_get_num_does():
    obj = {"a": 1.5, "b": 2, "c": -0.0}
    assert wire.get_nums(obj, "w", "a", "b", "c") == [1.5, 2.0, -0.0]
    assert [type(v) for v in wire.get_nums(obj, "w", "b")] == [float]
    cases = [
        ({"a": True, "b": "x"}, "w.a: must be a number"),
        ({"a": 1.0, "b": 10**400}, "w.b: integer too large for a float"),
        ({"a": "x", "b": None}, "w.a: must be a number"),
        ({"b": 1.0}, "w.a: missing field"),
        ([1.0, 2.0], "w.a: missing field"),
        (None, "w.a: missing field"),
        ("ab", "w.a: missing field"),
    ]
    for obj, text in cases:
        with pytest.raises(wire.ScenarioParseError) as info:
            wire.get_nums(obj, "w", "a", "b")
        assert str(info.value) == text
