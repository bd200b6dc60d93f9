"""Fuzz gate over every input boundary.

Each document starts from a valid one that sets every field its decoder
reads. Edits then put numbers at the edges of the float range (401-digit
integers, +-1e400, +-1e308, -0.0, 0) where the document holds a number, and
those numbers, values of other types, or deletions anywhere. Every single number edit is
tried exhaustively; Hypothesis draws combinations of one to three edits.
Whatever comes in, the outcome must be one of a closed set:

- a decoder returns, or raises ScenarioParseError, ScenarioValidationError
  (scenarios) or RequestDecodeError (requests);
- what it returned holds no non-finite number (a request only once the
  server accepts it), and goes through the model and onto the wire or into
  a report without raising and without a non-finite number;
- over HTTP, every request gets a reply: a JSON inquiry response, or a 4xx
  or 5xx status other than 500, which answers a failure inside the service;
  never a dropped connection.

Examples are derandomized and bounded, and each has a deadline, so the gate
is reproducible and adds a few seconds to the suite.
"""

import copy
import dataclasses
import json
import math
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afcsim.channels import SUPPORTED_BANDWIDTHS_MHZ, ChannelId
from afcsim.errors import ScenarioParseError, ScenarioValidationError
from afcsim.geo import GeoPoint, LocationEllipse
from afcsim.scenario import assess_harm, load_scenario, run_scenario
from afcsim.server import ResponseCode, ServerPolicy, World, compute_availability, handle_inquiry
from afcsim.wire import (
    INQUIRY_PATH,
    AfcService,
    RequestDecodeError,
    decode_database,
    decode_policy,
    decode_propagation,
    decode_protection,
    decode_request,
    dumps_response,
    encode_response,
    iso_to_epoch,
    loads_strict,
)

GATE = settings(
    derandomize=True,
    database=None,
    deadline=2000,
    max_examples=250,
    suppress_health_check=[HealthCheck.too_slow],
)

HUGE = 10**400
EDGE_NUMBERS = (HUGE, -HUGE, math.inf, -math.inf, 1e308, -1e308, -0.0, 0)
OTHER_TYPES = ("", "x", "9999-12-31T23:00:00Z", None, True, [], {}, [1, 2], {"a": 1})
DELETE = object()

LINK = {
    "id": "FS-1",
    "rxLocation": {"latitude": 40.05, "longitude": -77.0, "heightM": 30.0},
    "freqRange": {"lowMhz": 5925.0, "highMhz": 7125.0},
    "bandwidthMhz": 20.0,
    "noiseFigureDb": 5.0,
    "maxGainDbi": 30.0,
    "azimuthDeg": 90.0,
    "beamwidthDeg": 6.0,
    "discriminationDb": 25.0,
}
DATABASE = {
    "fsLinks": [LINK],
    "exclusionZones": [
        {
            "zone": {"center": {"latitude": 41.0, "longitude": -78.0}, "radiusM": 500.0},
            "banned": {"lowMhz": 6500.0, "highMhz": 6600.0},
        }
    ],
}
POLICY = {
    "grantLifetimeS": 86400.0,
    "gpsTimestampToleranceS": 60.0,
    "coverage": [{"latMin": 24.5, "latMax": 49.5, "lonMin": -125.0, "lonMax": -66.9}],
    "geofences": {"AP-9": {"center": {"latitude": 40.0, "longitude": -77.0}, "radiusM": 100.0}},
}
PROPAGATION = {"regimeThresholdM": 1000.0, "clutterOffsetDb": 20.0}
PROTECTION = {"iOverNLimitDb": -6.0, "regulatoryMaxEirpDbm": 36.0, "minUsefulEirpDbm": 21.0}
REQUEST = {
    "requestId": "R-1",
    "deviceSerial": "AP-1",
    "certificationId": "C-1",
    "location": {
        "latitude": 40.0,
        "longitude": -77.0,
        "majorAxisM": 20.0,
        "minorAxisM": 10.0,
        "orientationDeg": 30.0,
        "gpsTime": "2025-06-20T00:00:00Z",
    },
    "heightM": 3.0,
    "inquiredBandwidthsMhz": [20, 40, 320],
    "transportAuthenticated": True,
}
SCENARIO = {
    "name": "fuzz",
    "seed": 3,
    "epoch": "2025-06-20T00:00:00Z",
    "world": {
        "database": DATABASE,
        "policy": POLICY,
        "propagation": PROPAGATION,
        "protection": PROTECTION,
    },
    "gnss": {"sigmaM": 5.0, "ellipseScale": 2.0, "captureMarginDb": 3.0},
    "detection": {"groupThresholdM": 50.0},
    "aps": [
        {
            "serial": "AP-1",
            "certificationId": "C-1",
            "truePosition": {"latitude": 40.0, "longitude": -77.0},
            "deploymentRegistration": {"latitude": 40.0, "longitude": -77.0},
            "geofence": {"center": {"latitude": 40.0, "longitude": -77.0}, "radiusM": 200.0},
            "heightM": 3.0,
            "refreshIntervalS": 3600.0,
            "inquiredBandwidthsMhz": [20, 80],
            "legitPowerDbm": -110.0,
            "clockOffsetS": 0.0,
        },
        {"serial": "AP-2", "truePosition": {"latitude": 40.001, "longitude": -77.001}},
    ],
    "spoofers": [
        {
            "position": {"latitude": 40.0, "longitude": -77.002},
            "broadcastPosition": {"latitude": 40.06, "longitude": -77.0},
            "txPowerDbm": 10.0,
            "timeOffsetS": 0.0,
            "activeWindow": [0, 1000],
        }
    ],
    "timeline": [
        {"at": 10, "action": "RUN_INQUIRY"},
        {"at": 20, "action": "SET_AP_CLOCK_OFFSET", "ap": "AP-1", "offsetS": -30.0},
        {"at": 30, "action": "RUN_DETECTORS"},
        {"at": 40, "action": "ADVANCE_CLOCK"},
        {"at": 50, "action": "RUN_INQUIRY", "ap": "AP-2"},
    ],
}

NOW = iso_to_epoch(REQUEST["location"]["gpsTime"])
LOC = LocationEllipse(GeoPoint(40.0, -77.0), 20.0, 10.0, 30.0, NOW)
BASE_DB = decode_database(DATABASE)
BASE_PCFG = decode_propagation(PROPAGATION)
BASE_PROT = decode_protection(PROTECTION)
BASE_REQUEST = decode_request(REQUEST)


def _paths(node, prefix=()):
    """Every path below node, containers included, parents first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        yield prefix + (k,)
        yield from _paths(node[k], prefix + (k,))


def _put(doc, path, value) -> None:
    """Overwrite (or delete) the value at path; a path an earlier edit removed is skipped."""
    node = doc
    for k in path[:-1]:
        try:
            node = node[k]
        except (KeyError, IndexError, TypeError):
            return
    k = path[-1]
    if (isinstance(node, dict) and k in node) or (isinstance(node, list) and isinstance(k, int) and k < len(node)):
        if value is DELETE:
            del node[k]
        else:
            node[k] = copy.deepcopy(value)


def _numeric_paths(doc) -> list[tuple]:
    """The paths of doc's numbers."""
    def at(path):
        node = doc
        for k in path:
            node = node[k]
        return node

    return [p for p in _paths(doc) if type(at(p)) in (int, float)]


@st.composite
def mutated(draw, base):
    """base with one to three edits: an edge number at a number, or any value
    (or a deletion) anywhere."""
    doc = copy.deepcopy(base)
    paths, numeric = list(_paths(doc)), _numeric_paths(doc)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            _put(doc, draw(st.sampled_from(numeric)), draw(st.sampled_from(EDGE_NUMBERS)))
        else:
            _put(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(EDGE_NUMBERS + OTHER_TYPES + (DELETE,))))
    return doc


def as_text(doc) -> str:
    """JSON text in which an infinity is the overflow literal 1e400, as a file would hold it."""
    return json.dumps(doc).replace("Infinity", "1e400")


def _non_finite(obj, path="") -> list[str]:
    """The paths of the non-finite floats inside a decoded model value.

    A spoofer's active window is exempt: an open window ends at infinity.
    """
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name != "active_window"]
    elif isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return []
    return [p for k, v in items for p in _non_finite(v, f"{path}.{k}")]


def _finite_wire(resp) -> None:
    """The response serializes as json.dumps writes it, and its JSON holds no non-finite number."""
    assert dumps_response(resp) == json.dumps(encode_response(resp), sort_keys=True)
    loads_strict(dumps_response(resp))
    assert all(math.isfinite(g.max_eirp_dbm) for g in resp.grants)


def _finite_grants(db, pcfg, prot) -> None:
    """Grants, the compiled link rows and harm at LOC hold no non-finite number."""
    grants = compute_availability(LOC, SUPPORTED_BANDWIDTHS_MHZ, db, pcfg, prot)
    assert all(math.isfinite(g.max_eirp_dbm) for g in grants)
    assert _non_finite(db.link_rows) == []
    rows, metrics = assess_harm(
        [("AP-1", LOC.center, ChannelId(20, 9), 30.0)], World(database=db, propagation=pcfg, protection=prot)
    )
    assert all(math.isfinite(r.i_over_n_db) for r in rows)
    assert all(math.isfinite(v) for v in metrics.worst_i_over_n_db.values())


# One check per boundary: decode, then use what was decoded as the program does.


def check_scenario(doc) -> None:
    try:
        scenario = load_scenario(as_text(doc))
    except (ScenarioParseError, ScenarioValidationError):
        return
    assert _non_finite(scenario) == []
    assert scenario.group_threshold_m >= 0.0  # a negative one alarms on every group
    report = run_scenario(scenario)
    loads_strict(report.dumps())
    assert all(isinstance(text, str) for text in report.rendered_reports.values())


def check_request(doc) -> None:
    try:
        req = decode_request(doc)
    except RequestDecodeError:
        return
    # As afcsim inquire without --now: the server clock is the request's GPS time.
    resp = handle_inquiry(req, req.location.gps_time, BASE_DB, ServerPolicy(), BASE_PCFG, BASE_PROT)
    _finite_wire(resp)
    if resp.response_code is ResponseCode.SUCCESS:
        # validate_request screens what decoding admits: a non-finite height is INVALID_REQUEST.
        assert _non_finite(req) == []


def check_database(doc) -> None:
    try:
        db = decode_database(doc)
    except ScenarioParseError:
        return
    assert _non_finite(db) == []
    _finite_grants(db, BASE_PCFG, BASE_PROT)


def check_policy(doc) -> None:
    try:
        policy = decode_policy(doc)
    except ScenarioParseError:
        return
    assert _non_finite(policy) == []
    _finite_wire(handle_inquiry(BASE_REQUEST, NOW, BASE_DB, policy, BASE_PCFG, BASE_PROT))


def check_propagation(doc) -> None:
    try:
        pcfg = decode_propagation(doc)
    except ScenarioParseError:
        return
    assert _non_finite(pcfg) == []
    _finite_grants(BASE_DB, pcfg, BASE_PROT)


def check_protection(doc) -> None:
    try:
        prot = decode_protection(doc)
    except ScenarioParseError:
        return
    assert _non_finite(prot) == []
    _finite_grants(BASE_DB, BASE_PCFG, prot)


BOUNDARIES = {
    "scenario": (SCENARIO, check_scenario),
    "request": (REQUEST, check_request),
    "database": (DATABASE, check_database),
    "policy": (POLICY, check_policy),
    "propagation": (PROPAGATION, check_propagation),
    "protection": (PROTECTION, check_protection),
}


def test_base_documents_decode():
    # The gate edits valid documents, so each must get through unedited.
    report = run_scenario(load_scenario(as_text(SCENARIO)))
    assert report.harm_rows and report.detections
    assert handle_inquiry(BASE_REQUEST, NOW, BASE_DB, decode_policy(POLICY), BASE_PCFG, BASE_PROT).grants
    for base, check in BOUNDARIES.values():
        check(copy.deepcopy(base))


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_every_number_at_every_edge(kind):
    # Exhaustive over single edits: each number of the base document in turn
    # becomes each edge number. Hypothesis below draws the combinations.
    base, check = BOUNDARIES[kind]
    failures = []
    for path in _numeric_paths(base):
        for value in EDGE_NUMBERS:
            doc = copy.deepcopy(base)
            _put(doc, path, value)
            try:
                check(doc)
            except Exception as e:  # every escape is a finding
                failures.append(f"{'.'.join(map(str, path))} = {value if value is not HUGE else '10**400'}: {e!r}")
    assert failures == []


# Few edited scenarios load (most edits break a field), so this one draws more.
@settings(GATE, max_examples=400)
@given(mutated(SCENARIO))
def test_fuzz_load_scenario(doc):
    check_scenario(doc)


@GATE
@given(mutated(REQUEST))
def test_fuzz_decode_request(doc):
    check_request(doc)


@GATE
@given(mutated(DATABASE))
def test_fuzz_decode_database(doc):
    check_database(doc)


@GATE
@given(mutated(POLICY))
def test_fuzz_decode_policy(doc):
    check_policy(doc)


@GATE
@given(mutated(PROPAGATION))
def test_fuzz_decode_propagation(doc):
    check_propagation(doc)


@GATE
@given(mutated(PROTECTION))
def test_fuzz_decode_protection(doc):
    check_protection(doc)


# --- raw HTTP bytes ---------------------------------------------------------

# Every socket read gives up after this long, so a server that never replies
# fails the example instead of hanging the suite.
DEADLINE_S = 5.0

REQUEST_LINES = (
    b"POST " + INQUIRY_PATH.encode() + b" HTTP/1.1",
    b"POST " + INQUIRY_PATH.encode() + b" HTTP/1.0",
    b"POST /elsewhere HTTP/1.1",
    b"GET " + INQUIRY_PATH.encode() + b" HTTP/1.1",
    b"BREW " + INQUIRY_PATH.encode() + b" HTTP/1.1",
)


@pytest.fixture(scope="module")
def service():
    with AfcService(BASE_DB, decode_policy(POLICY), BASE_PCFG, BASE_PROT, now_fn=lambda: NOW) as svc:
        yield svc


def _exchange(svc, raw: bytes) -> bytes:
    with socket.create_connection((svc.host, svc.port), timeout=DEADLINE_S) as sock:
        sock.sendall(raw)
        reply = b""
        while chunk := sock.recv(65536):  # socket.timeout fails the example
            reply += chunk
    return reply


def check_http(svc, line: bytes, body: bytes, declared: bytes | None = None) -> None:
    """One raw request gets one reply: a JSON inquiry response, or a 4xx or 5xx status but 500
    whose body is one JSON error object, sent with Connection: close."""
    declared = str(len(body)).encode() if declared is None else declared
    raw = line + b"\r\nHost: afc\r\nConnection: close\r\nContent-Length: " + declared + b"\r\n\r\n" + body
    reply = _exchange(svc, raw)
    assert reply.startswith(b"HTTP/1."), reply
    status = int(reply.split(b" ", 2)[1])
    # A 500 is the reply to a failure inside the service.
    assert status == 200 or (400 <= status < 600 and status != 500), reply
    head, _, payload = reply.partition(b"\r\n\r\n")
    if status == 200:
        assert ResponseCode(loads_strict(payload)["responseCode"])
        return
    headers = dict(field.split(b": ", 1) for field in head.split(b"\r\n")[1:])
    assert headers[b"Connection"] == b"close", reply
    assert int(headers[b"Content-Length"]) == len(payload), reply  # nothing follows the one reply
    error = loads_strict(payload)
    assert isinstance(error, dict) and "error" in error, reply


def test_every_request_number_at_every_edge_over_http(service):
    for path in _numeric_paths(REQUEST):
        for value in EDGE_NUMBERS:
            doc = copy.deepcopy(REQUEST)
            _put(doc, path, value)
            check_http(service, REQUEST_LINES[0], as_text(doc).encode())


@settings(GATE, max_examples=100)
@given(
    # The inquiry route, drawn more often than the other request lines.
    line=st.one_of(st.just(REQUEST_LINES[0]), st.sampled_from(REQUEST_LINES)),
    body=st.one_of(mutated(REQUEST).map(lambda d: as_text(d).encode()), st.binary(max_size=64)),
    length=st.one_of(st.none(), st.sampled_from((b"", b"-1", b"abc", b"0x10", b"1e3", b"9" * 30))),
)
def test_fuzz_raw_http(service, line, body, length):
    # A declared length longer than the body would only wait out the read
    # timeout, which tests/test_boundaries.py covers; here it is never longer.
    check_http(service, line, body, length)
