"""JSON codecs, timestamp handling, and the loopback HTTP service."""

import copy
import dataclasses
import http.client
import json
import math
import socket
import threading
from datetime import datetime, timedelta

import pytest

from afcsim.access_point import ApConfig
from afcsim.channels import ChannelId
from afcsim.errors import ScenarioParseError
from afcsim.geo import GeoPoint, LocationEllipse
from afcsim.gnss import GnssNoiseModel
from afcsim.propagation import PropagationConfig, ProtectionConfig
from afcsim.scenario import ApSpec, Scenario, SpooferSpec, TimelineEvent, load_scenario
from afcsim.server import (
    ChannelGrant,
    ResponseCode,
    ServerPolicy,
    SpectrumInquiryRequest,
    SpectrumInquiryResponse,
    World,
    handle_inquiry,
    is_date,
)
from afcsim.wire import (
    INQUIRY_PATH,
    MAX_BODY_BYTES,
    AfcService,
    RequestDecodeError,
    _InquiryHandler,
    decode_database,
    decode_geopoint,
    decode_policy,
    decode_propagation,
    decode_protection,
    decode_request,
    decode_world,
    dumps_response,
    encode_request,
    encode_response,
    epoch_to_clock,
    epoch_to_iso,
    get_field,
    get_int,
    get_int_list,
    get_list,
    get_num,
    get_obj,
    get_text,
    iso_to_epoch,
    post_inquiry,
)

NOW_ISO = "2025-06-20T05:10:00Z"
NOW = iso_to_epoch(NOW_ISO)


def make_request(gps_time=NOW):
    return SpectrumInquiryRequest(
        request_id="REQ-7",
        device_serial="AP-1",
        certification_id="CERT-AP-1",
        location=LocationEllipse(GeoPoint(40.7934, -77.86), 12.5, 3.25, 101.0, gps_time),
        height_m=3.0,
        inquired_bandwidths=(20, 40, 80, 160, 320),
        transport_authenticated=True,
    )


# --- timestamps -----------------------------------------------------------


def test_iso_round_trip():
    assert epoch_to_iso(0.0) == "1970-01-01T00:00:00Z"
    assert iso_to_epoch("1970-01-01T00:00:00Z") == 0.0
    assert epoch_to_iso(NOW) == NOW_ISO
    assert iso_to_epoch(epoch_to_iso(1_750_000_123.0)) == 1_750_000_123.0


def test_iso_accepts_explicit_offset_and_naive():
    assert iso_to_epoch("2025-06-20T05:10:00+00:00") == NOW
    assert iso_to_epoch("2025-06-20T05:10:00") == NOW


def test_epoch_to_iso_floors_fractional_seconds():
    assert epoch_to_iso(0.999) == "1970-01-01T00:00:00Z"


def test_is_date_marks_the_renderable_range():
    first = iso_to_epoch("0001-01-01T00:00:00Z")
    last = iso_to_epoch("9999-12-31T23:59:59Z")
    for t in (first, last, last + 0.999):
        assert is_date(t)
        epoch_to_iso(t), epoch_to_clock(t)
    for t in (math.nextafter(first, -math.inf), last + 1.0, 1e308, -math.inf, math.inf, math.nan):
        assert not is_date(t)
        with pytest.raises((OverflowError, ValueError)):
            epoch_to_iso(t)


@pytest.mark.parametrize(
    "text",
    ["0001-01-01T00:00:00Z", "0005-06-21T05:10:00Z", "0999-12-31T23:59:59Z", "1000-01-01T00:00:00Z", "9999-12-31T23:59:59Z"],
)
def test_years_before_1000_render_zero_padded_and_round_trip(text):
    # The first and last of these are the two ends of is_date.
    t = iso_to_epoch(text)
    assert is_date(t)
    assert epoch_to_iso(t) == text and iso_to_epoch(epoch_to_iso(t)) == t
    assert epoch_to_clock(t) == text.replace("T", " ").rstrip("Z")
    assert epoch_to_iso(t + 0.999) == text


def test_clock_rendering():
    assert epoch_to_clock(NOW) == "2025-06-20 05:10:00"
    assert epoch_to_clock(NOW + 193.0) == "2025-06-20 05:13:13"


FIRST_DATE_S = iso_to_epoch("0001-01-01T00:00:00Z")
LAST_DATE_S = iso_to_epoch("9999-12-31T23:59:59Z")


def _uncached(epoch_s: float, sep: str) -> str:
    """The date of epoch_s's whole second, from the fields of a datetime."""
    d = datetime(1970, 1, 1) + timedelta(seconds=math.floor(epoch_s))
    return f"{d.year:04d}-{d.month:02d}-{d.day:02d}{sep}{d.hour:02d}:{d.minute:02d}:{d.second:02d}"


def test_cached_dates_equal_the_uncached_formula():
    # The dates are cached per whole second; each point is asked twice, so
    # the second answer comes from the cache.
    for x in (FIRST_DATE_S, -1.0, 0.0, NOW, LAST_DATE_S - 1.0, LAST_DATE_S):
        for t in (x, x + 0.999, x + 1.0) if x < LAST_DATE_S else (x, x + 0.999):
            for _ in range(2):
                assert epoch_to_iso(t) == _uncached(t, "T") + "Z"
                assert epoch_to_clock(t) == _uncached(t, " ")
    assert epoch_to_iso(-0.5) == "1969-12-31T23:59:59Z"
    assert epoch_to_clock(-0.5) == "1969-12-31 23:59:59"


def test_a_date_out_of_range_raises_on_every_call():
    # lru_cache caches no exception, so the cache never answers for these.
    for t in (LAST_DATE_S + 1.0, FIRST_DATE_S - 1.0, 1e300):
        for _ in range(3):
            with pytest.raises(OverflowError):
                epoch_to_iso(t)
            with pytest.raises(OverflowError):
                epoch_to_clock(t)


# --- request codec --------------------------------------------------------


def test_request_round_trip():
    req = make_request()
    assert decode_request(encode_request(req)) == req


def test_request_wire_field_names():
    body = encode_request(make_request())
    assert set(body) == {
        "requestId", "deviceSerial", "certificationId", "location",
        "heightM", "inquiredBandwidthsMhz", "transportAuthenticated",
    }
    assert set(body["location"]) == {
        "latitude", "longitude", "majorAxisM", "minorAxisM", "orientationDeg", "gpsTime",
    }
    assert body["location"]["gpsTime"] == NOW_ISO


def test_decode_request_recovers_request_id_on_error():
    body = encode_request(make_request())
    del body["location"]["latitude"]
    with pytest.raises(RequestDecodeError) as info:
        decode_request(body)
    assert info.value.request_id == "REQ-7"


def test_decode_request_rejects_bad_types():
    body = encode_request(make_request())
    body["inquiredBandwidthsMhz"] = [20.0, 40]
    with pytest.raises(RequestDecodeError):
        decode_request(body)
    body = encode_request(make_request())
    body["transportAuthenticated"] = "yes"
    with pytest.raises(RequestDecodeError):
        decode_request(body)
    with pytest.raises(RequestDecodeError):
        decode_request(["not", "an", "object"])


# --- response codec -------------------------------------------------------


def success_response():
    return SpectrumInquiryResponse(
        request_id="REQ-7",
        response_code=ResponseCode.SUCCESS,
        country_code="US",
        grants=(
            ChannelGrant(ChannelId(20, 9), 21.01),
            ChannelGrant(ChannelId(320, 33, 2), 36.0),
        ),
        issue_time=NOW,
        expire_time=NOW + 86_400.0,
    )


def test_success_response_wire_shape():
    body = encode_response(success_response())
    assert set(body) == {
        "requestId", "responseCode", "grants", "countryCode", "issueTime", "expireTime",
    }
    assert body["issueTime"] == NOW_ISO
    assert body["expireTime"] == "2025-06-21T05:10:00Z"
    assert body["grants"][0] == {"bandwidthMhz": 20, "cfi": 9, "maxEirpDbm": 21.01}
    assert body["grants"][1]["variant"] == 2  # only 320 MHz carries a variant


def test_rejection_response_wire_shape():
    body = encode_response(
        SpectrumInquiryResponse("REQ-8", ResponseCode.STALE_TIMESTAMP)
    )
    assert body == {"requestId": "REQ-8", "responseCode": "STALE_TIMESTAMP", "grants": []}


def test_dumps_is_byte_stable():
    a = dumps_response(success_response())
    b = dumps_response(success_response())
    assert a == b
    assert json.loads(a)["responseCode"] == "SUCCESS"
    assert list(json.loads(a)) == sorted(json.loads(a))


# --- HTTP loopback --------------------------------------------------------


@pytest.fixture
def service(database, policy, propagation, protection):
    svc = AfcService(database, policy, propagation, protection, now_fn=lambda: NOW)
    svc.start()
    yield svc
    svc.close()


def test_loopback_inquiry_matches_direct_handling(
    service, database, policy, propagation, protection
):
    req = make_request()
    got = post_inquiry(service.host, service.port, encode_request(req))
    want = encode_response(
        handle_inquiry(req, NOW, database, policy, propagation, protection)
    )
    assert got == want
    assert got["responseCode"] == "SUCCESS"
    # The 12.5 m ellipse contracts the AP-link distance just enough to pull
    # the co-channel 80 MHz grant under the useful minimum.
    assert len(got["grants"]) == 75
    granted = {(g["bandwidthMhz"], g["cfi"]) for g in got["grants"]}
    assert (80, 1) not in granted
    assert (20, 9) in granted


def test_loopback_stale_request_rejected(service):
    req = make_request(gps_time=NOW - 3600.0)
    got = post_inquiry(service.host, service.port, encode_request(req))
    assert got["responseCode"] == "STALE_TIMESTAMP"
    assert got["grants"] == []


def test_kept_alive_replies_leave_without_waiting_for_an_ack(
    service, monkeypatch, database, policy, propagation, protection
):
    # A reply's body is written after its headers. With Nagle's algorithm on, the body waits for
    # the ACK of the headers, which a kept-alive client delays (up to 40 ms on Linux), so each
    # request would stall. TCP_NODELAY is read back from the handler's own socket, not timed.
    nodelay = []
    handle = _InquiryHandler.handle

    def recording_handle(self):
        nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        handle(self)

    monkeypatch.setattr(_InquiryHandler, "handle", recording_handle)
    req = make_request()
    want = encode_response(handle_inquiry(req, NOW, database, policy, propagation, protection))
    body = json.dumps(encode_request(req)).encode()
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        for _ in range(3):
            conn.request("POST", INQUIRY_PATH, body=body, headers={"Content-Type": "application/json"})
            assert json.loads(conn.getresponse().read()) == want
    finally:
        conn.close()
    assert len(nodelay) == 1 and nodelay[0] != 0  # one connection carried all three


def test_malformed_body_yields_invalid_request(service):
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.request(
            "POST", INQUIRY_PATH, body=b"{nope", headers={"Content-Type": "application/json"}
        )
        resp = conn.getresponse()
        assert resp.status == 200
        body = json.loads(resp.read())
        assert body["responseCode"] == "INVALID_REQUEST"
    finally:
        conn.close()


def test_non_finite_ellipse_axis_yields_invalid_request(service):
    # Left through, an infinite major axis would contract every link to 1 m.
    body = encode_request(make_request())
    body["location"]["majorAxisM"] = math.inf
    with pytest.raises(RequestDecodeError):
        decode_request(body)
    got = post_inquiry(service.host, service.port, body)  # sent as the token Infinity
    assert got == {"grants": [], "requestId": "REQ-7", "responseCode": "INVALID_REQUEST"}


def _exchange(service, raw: bytes) -> bytes:
    """Send raw bytes and return all the server writes until it closes."""
    with socket.create_connection((service.host, service.port), timeout=2.0) as sock:
        sock.sendall(raw)
        reply = b""
        while chunk := sock.recv(65536):  # socket.timeout fails the test after 2 s
            reply += chunk
    return reply


def _replies(data: bytes) -> list[tuple[int, dict, bytes]]:
    """The (status, headers, body) of each reply in data, each body framed by its Content-Length."""
    replies = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        length = int(headers[b"Content-Length"])
        replies.append((int(lines[0].split()[1]), headers, rest[:length]))
        data = rest[length:]
    return replies


def _one_error(service, raw: bytes, status: int) -> dict:
    """The JSON of the one reply to raw: an error with status that closes the connection."""
    [(got, headers, body)] = _replies(_exchange(service, raw))  # nothing follows the one reply
    assert got == status
    assert headers[b"Connection"] == b"close"
    assert headers[b"Content-Type"] == b"application/json"
    error = json.loads(body)
    assert set(error) == {"error"}
    return error


POST_HEAD = b"POST " + INQUIRY_PATH.encode() + b" HTTP/1.1\r\nHost: afc\r\n"


@pytest.mark.parametrize(
    "length, status",
    [(b"-1", 400), (b"abc", 400), (b"1_0", 400), (b"", 400), (b"65537", 413), (b"9" * 5000, 413)],
    ids=["negative", "non-numeric", "underscore", "empty", "over-64-KiB", "5000-digits"],
)
def test_refused_content_length_is_answered_unread(service, length, status):
    # Read as given, -1 would wait for the client to close and pin a handler thread.
    _one_error(service, POST_HEAD + b"Content-Length: " + length + b"\r\n\r\n", status)


@pytest.mark.parametrize("lengths", [(b"2", b"30"), (b"2", b"2")], ids=["differing", "equal"])
def test_repeated_content_length_is_refused_with_one_reply(service, lengths):
    # Read by its first value, the rest of the body would be served as a second
    # request; a peer that reads the last value sees only one.
    fields = b"".join(b"Content-Length: " + n + b"\r\n" for n in lengths)
    rest = b"{}GET /x HTTP/1.1\r\nHost: afc\r\n\r\n"
    _one_error(service, POST_HEAD + fields + b"\r\n" + rest, 400)


@pytest.mark.parametrize("length", [b"", b"Content-Length: 5\r\n"], ids=["chunked", "chunked-and-length"])
def test_transfer_encoding_is_refused_with_one_reply(service, length):
    # Read as a Content-Length body, chunk framing would be parsed as JSON or
    # as a second request; the refusal leaves it unread and closes.
    doc = json.dumps(encode_request(make_request())).encode()
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(doc), doc)
    _one_error(service, POST_HEAD + b"Transfer-Encoding: chunked\r\n" + length + b"\r\n" + chunked, 411)


def test_get_with_a_body_is_refused_with_one_reply(service):
    # Kept open, the connection would read the unread body as a request line.
    raw = b"GET " + INQUIRY_PATH.encode() + b" HTTP/1.1\r\nHost: afc\r\nContent-Length: 13\r\n\r\nBREW / HTTP/1"
    assert _one_error(service, raw, 405) == {"error": "POST only"}


def test_invalid_request_keeps_the_connection(service):
    # An INVALID_REQUEST has read its body, so the next request on the socket is served.
    doc = json.dumps(encode_request(make_request())).encode()
    raw = (
        POST_HEAD + b"Content-Length: 5\r\n\r\n{nope"
        + POST_HEAD + b"Connection: close\r\nContent-Length: %d\r\n\r\n%s" % (len(doc), doc)
    )
    first, second = _replies(_exchange(service, raw))
    assert (first[0], json.loads(first[2])["responseCode"]) == (200, "INVALID_REQUEST")
    assert (second[0], json.loads(second[2])["responseCode"]) == (200, "SUCCESS")
    assert b"Connection" not in first[1]


@pytest.mark.parametrize("method", [b"PUT", b"BREW"])
def test_method_without_a_handler_gets_a_json_501(service, method):
    error = _one_error(service, method + b" " + INQUIRY_PATH.encode() + b" HTTP/1.1\r\nHost: afc\r\n\r\n", 501)
    assert method.decode() in error["error"]


def test_head_gets_the_501_headers_without_a_body(service):
    reply = _exchange(service, b"HEAD " + INQUIRY_PATH.encode() + b" HTTP/1.1\r\nHost: afc\r\n\r\n")
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 ")
    assert b"\r\nConnection: close" in head and b"\r\nContent-Type: application/json" in head
    assert body == b""


def test_too_many_headers_get_a_json_431(service):
    headers = b"".join(b"X-%d: 1\r\n" % i for i in range(120))
    assert _one_error(service, POST_HEAD + headers + b"\r\n", 431) == {"error": "Too many headers"}


def test_unreadable_request_line_gets_one_json_object(service):
    # A fourth word, and a version http.server does not speak; each reply has a status line and headers.
    for version, status in ((b"HTTP/1.1 extra", 400), (b"HTTP/2.0", 505)):
        raw = b"POST " + INQUIRY_PATH.encode() + b" " + version + b"\r\n\r\n"
        assert _exchange(service, raw).startswith(b"HTTP/1.1 %d " % status)
        _one_error(service, raw, status)


def test_body_of_exactly_64_kib_is_served(service):
    body = json.dumps(encode_request(make_request())).ljust(MAX_BODY_BYTES).encode()
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.request("POST", INQUIRY_PATH, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["responseCode"] == "SUCCESS"
    finally:
        conn.close()


def test_unknown_path_404_and_wrong_method_405(service):
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.request("POST", "/nowhere", body=b"{}")
        assert conn.getresponse().status == 404
    finally:
        conn.close()
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.request("GET", INQUIRY_PATH)
        assert conn.getresponse().status == 405
    finally:
        conn.close()


def test_service_context_manager(database, policy, propagation, protection):
    with AfcService(database, policy, propagation, protection, now_fn=lambda: NOW) as svc:
        got = post_inquiry(svc.host, svc.port, encode_request(make_request()))
        assert got["responseCode"] == "SUCCESS"


def test_close_returns_on_a_service_never_started(database, policy, propagation, protection):
    # No serve_forever loop ran, so there is none for close() to wait on.
    svc = AfcService(database, policy, propagation, protection)
    closer = threading.Thread(target=svc.close, daemon=True)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive(), "close() on an unstarted service did not return"
    with pytest.raises(ConnectionRefusedError):  # the listening socket is closed
        socket.create_connection((svc.host, svc.port), timeout=1).close()


# --- config decoding ------------------------------------------------------


def test_decode_policy_round_trip():
    policy = decode_policy(
        {
            "grantLifetimeS": 3600,
            "gpsTimestampToleranceS": 30,
            "coverage": [
                {"latMin": 20.0, "latMax": 50.0, "lonMin": -130.0, "lonMax": -60.0}
            ],
            "geofences": {
                "AP-1": {"center": {"latitude": 40.0, "longitude": -77.0}, "radiusM": 100.0}
            },
        }
    )
    assert policy.grant_lifetime_s == 3600
    assert policy.gps_timestamp_tolerance_s == 30
    assert policy.coverage[0].contains(GeoPoint(21.0, -100.0))
    assert "AP-1" in policy.geofence_registry


LINK_DOC = {
    "id": "FS-1",
    "rxLocation": {"latitude": 40.0, "longitude": -77.0},
    "freqRange": {"lowMhz": 5925.0, "highMhz": 7125.0},
    "bandwidthMhz": 20.0,
    "noiseFigureDb": 5.0,
    "maxGainDbi": 30.0,
    "azimuthDeg": 90.0,
    "beamwidthDeg": 6.0,
    "discriminationDb": 25.0,
}


@pytest.mark.parametrize(
    "decode, key, token",
    [
        (decode_propagation, "regimeThresholdM", "Infinity"),
        (decode_propagation, "clutterOffsetDb", "Infinity"),
        (decode_propagation, "clutterOffsetDb", "NaN"),
        (decode_protection, "iOverNLimitDb", "NaN"),
        (decode_protection, "iOverNLimitDb", "Infinity"),
        (decode_protection, "regulatoryMaxEirpDbm", "NaN"),
        (decode_protection, "minUsefulEirpDbm", "-Infinity"),
    ],
)
def test_decode_config_rejects_non_finite_fields(decode, key, token):
    with pytest.raises(ScenarioParseError) as info:
        decode(json.loads(f'{{"{key}": {token}}}'))
    assert info.value.field == decode.__name__.removeprefix("decode_")


def test_parse_errors_name_their_field_once():
    link = dict(LINK_DOC, bandwidthMhz=math.inf)
    cases = [
        (lambda: decode_database({"fsLinks": [link]}), "fsLinks[0]: bandwidth must be finite and > 0"),
        (lambda: decode_propagation({"clutterOffsetDb": math.inf}), "propagation: clutter offset must be finite and >= 0"),
        (lambda: decode_protection({"iOverNLimitDb": math.nan}), "protection: I/N limit must be finite"),
        (lambda: decode_policy({"grantLifetimeS": 0}), "policy: grant lifetime must be > 0"),
        (lambda: decode_policy({"coverage": [{"latMin": 1, "latMax": 0, "lonMin": 0, "lonMax": 1}]}),
         "coverage[0]: coverage box bounds are inverted"),
        # One case per field reader.
        (lambda: get_field({}, "latitude", "point"), "point.latitude: missing field"),
        (lambda: get_num({"heightM": "3"}, "heightM", "aps[0]"), "aps[0].heightM: must be a number"),
        (lambda: get_int({"seed": 1.5}, "seed", "scenario"), "scenario.seed: must be an integer"),
        (lambda: get_text({"id": 7}, "id", "fsLinks[0]"), "fsLinks[0].id: must be a string"),
        (lambda: get_int_list({"bw": [20, True]}, "bw", "request"), "request.bw: must be a list of integers"),
        (lambda: get_obj([], "policy", "world"), "world: must be an object"),
        (lambda: get_list({"aps": {}}, "aps", "scenario"), "scenario.aps: must be a list"),
    ]
    for call, text in cases:
        with pytest.raises(ScenarioParseError) as info:
            call()
        assert str(info.value) == text


def test_decode_database_defaults_empty():
    db = decode_database({})
    assert db.fs_links == () and db.exclusion_zones == ()


def test_decode_database_rejects_a_repeated_link_id():
    # Harm rows and the worst I/N per link are keyed by id, so a second link
    # under one id would be merged into the first.
    twin = dict(LINK_DOC, rxLocation={"latitude": 40.2, "longitude": -77.0})
    other = dict(LINK_DOC, id="FS-2")
    assert [link.id for link in decode_database({"fsLinks": [LINK_DOC, other]}).fs_links] == ["FS-1", "FS-2"]
    with pytest.raises(ScenarioParseError) as info:
        decode_database({"fsLinks": [LINK_DOC, other, twin]})
    assert info.value.field == "fsLinks[2].id"
    assert str(info.value) == "fsLinks[2].id: duplicate link id 'FS-1'"


@pytest.mark.parametrize(
    "key, token",
    [
        ("bandwidthMhz", "Infinity"),
        ("noiseFigureDb", "Infinity"),
        ("maxGainDbi", "-Infinity"),
        ("maxGainDbi", "NaN"),
        ("discriminationDb", "NaN"),
    ],
)
def test_decode_database_rejects_non_finite_link_fields(key, token):
    text = json.dumps({"fsLinks": [LINK_DOC]}).replace(f'"{key}": {LINK_DOC[key]}', f'"{key}": {token}')
    with pytest.raises(ScenarioParseError) as info:
        decode_database(json.loads(text))
    assert info.value.field == "fsLinks[0]"


# --- omitted fields take the model defaults ---------------------------------

POINT = {"latitude": 40.0, "longitude": -77.0}
AP_POINT = GeoPoint(40.0, -77.0)
SPOOFER_AT, BROADCAST = GeoPoint(40.0, -77.002), GeoPoint(40.06, -77.0)
# Every optional field of the records below is omitted; "gnss" and
# "detection" are there for the defaults tests to set fields in.
BARE_SCENARIO = {
    "epoch": NOW_ISO,
    "gnss": {},
    "detection": {},
    "aps": [{"serial": "AP-1", "truePosition": POINT}],
    "spoofers": [
        {
            "position": {"latitude": 40.0, "longitude": -77.002},
            "broadcastPosition": {"latitude": 40.06, "longitude": -77.0},
            "txPowerDbm": 10.0,
        }
    ],
    "timeline": [{"at": 10, "action": "RUN_INQUIRY"}],
}

DECODERS = {
    "point": decode_geopoint,
    "propagation": decode_propagation,
    "protection": decode_protection,
    "policy": decode_policy,
    "scenario": lambda doc: load_scenario(json.dumps(doc)),
}
BARE = {"point": POINT, "propagation": {}, "protection": {}, "policy": {}, "scenario": BARE_SCENARIO}

# (document, path of the record in it, key, the model and its field, another valid value)
OPTIONAL_FIELDS = [
    ("point", (), "heightM", GeoPoint, "height_m", 10.0),
    ("propagation", (), "regimeThresholdM", PropagationConfig, "regime_threshold_m", 500.0),
    ("propagation", (), "clutterOffsetDb", PropagationConfig, "clutter_offset_db", 10.0),
    ("protection", (), "iOverNLimitDb", ProtectionConfig, "i_over_n_limit_db", -10.0),
    ("protection", (), "regulatoryMaxEirpDbm", ProtectionConfig, "regulatory_max_eirp_dbm", 30.0),
    ("protection", (), "minUsefulEirpDbm", ProtectionConfig, "min_useful_eirp_dbm", 18.0),
    ("policy", (), "grantLifetimeS", ServerPolicy, "grant_lifetime_s", 3600.0),
    ("policy", (), "gpsTimestampToleranceS", ServerPolicy, "gps_timestamp_tolerance_s", 30.0),
    ("scenario", ("aps", 0), "heightM", ApConfig, "height_m", 10.0),
    ("scenario", ("aps", 0), "refreshIntervalS", ApConfig, "refresh_interval_s", 3600.0),
    ("scenario", ("aps", 0), "inquiredBandwidthsMhz", ApConfig, "inquired_bandwidths", [20, 80]),
    ("scenario", ("aps", 0), "legitPowerDbm", ApSpec, "legit_power_dbm", -120.0),
    ("scenario", ("aps", 0), "clockOffsetS", ApSpec, "initial_clock_offset_s", -30.0),
    ("scenario", ("spoofers", 0), "timeOffsetS", SpooferSpec, "time_offset_s", -30.0),
    ("scenario", ("gnss",), "sigmaM", GnssNoiseModel, "sigma_m", 8.0),
    ("scenario", ("gnss",), "ellipseScale", GnssNoiseModel, "ellipse_scale", 1.5),
    ("scenario", ("gnss",), "captureMarginDb", Scenario, "capture_margin_db", 6.0),
    ("scenario", ("detection",), "groupThresholdM", Scenario, "group_threshold_m", 80.0),
]


def _with_field(kind, path, key, value):
    doc = copy.deepcopy(BARE[kind])
    record = doc
    for step in path:
        record = record[step]
    record[key] = value
    return doc


def test_omitted_fields_decode_as_the_models_built_without_them():
    assert decode_geopoint(POINT) == GeoPoint(40.0, -77.0)
    assert decode_propagation({}) == PropagationConfig()
    assert decode_protection({}) == ProtectionConfig()
    assert decode_policy({}) == ServerPolicy()
    assert decode_policy({"coverage": []}).coverage == ServerPolicy().coverage
    assert load_scenario(json.dumps(BARE_SCENARIO)) == Scenario(
        name="scenario",
        seed=0,
        epoch_s=NOW,
        world=World(),
        aps=(ApSpec(ApConfig("AP-1", "CERT-AP-1"), AP_POINT, AP_POINT),),
        spoofers=(SpooferSpec(SPOOFER_AT, BROADCAST, 10.0),),
        timeline=(TimelineEvent(10.0, "RUN_INQUIRY"),),
    )


@pytest.mark.parametrize(
    "kind, path, key, model, name, other", OPTIONAL_FIELDS, ids=[f"{f[0]}.{f[2]}" for f in OPTIONAL_FIELDS]
)
def test_a_field_set_to_its_model_default_decodes_as_if_omitted(kind, path, key, model, name, other):
    decode = DECODERS[kind]
    default = next(f.default for f in dataclasses.fields(model) if f.name == name)
    bare = decode(BARE[kind])
    assert decode(_with_field(kind, path, key, list(default) if isinstance(default, tuple) else default)) == bare
    assert decode(_with_field(kind, path, key, other)) != bare  # the key is read


def test_decode_world_defaults_every_part_and_decodes_the_policy_first():
    assert decode_world({}, "world") == World()
    # Both parts are bad: the policy is named, as load_scenario always named it.
    with pytest.raises(ScenarioParseError, match=r"^policy: grant lifetime must be > 0$"):
        decode_world({"database": {"fsLinks": 5}, "policy": {"grantLifetimeS": 0}}, "world")
    with pytest.raises(ScenarioParseError, match=r"^engine\.database: must be an object$"):
        decode_world({"database": []}, "engine")
    with pytest.raises(ScenarioParseError, match=r"^world: must be an object$"):
        decode_world([], "world")


def test_coverage_set_to_the_model_default_decodes_as_if_omitted():
    boxes = [
        {"latMin": b.lat_min_deg, "latMax": b.lat_max_deg, "lonMin": b.lon_min_deg, "lonMax": b.lon_max_deg}
        for b in ServerPolicy().coverage
    ]
    assert decode_policy({"coverage": boxes}) == decode_policy({})
