"""Input boundaries that must fail cleanly: the EIRP ceiling, strict JSON
and its nesting depth, numbers beyond the float range, grant expiries that are not dates, infinite
scenario fields, finite inputs whose sums overflow, and HTTP clients that
stall or hit a failure inside the service."""

import dataclasses
import json
import math
import socket
import struct
import time

import pytest

from afcsim import wire
from afcsim.cli import main
from afcsim.errors import ScenarioParseError, ScenarioValidationError
from afcsim.geo import EARTH_RADIUS_M
from afcsim.gnss import GnssNoiseModel
from afcsim.propagation import MAX_EIRP_DBM, PropagationConfig, ProtectionConfig
from afcsim.scenario import load_scenario, run_scenario
from afcsim.server import MAX_GRANT_LIFETIME_S, ResponseCode, ServerPolicy, validate_request
from afcsim.wire import INQUIRY_PATH, AfcService, decode_policy, decode_protection, encode_request
from tests.test_cli import request_doc
from tests.test_scenario import base_doc
from tests.test_wire import LINK_DOC, NOW, make_request

LITERALS = ("NaN", "Infinity", "-Infinity")

# Every socket read in these tests gives up after this long, so a server that
# never replies fails the test instead of hanging it.
DEADLINE_S = 5.0


# --- the 36 dBm ceiling -----------------------------------------------------


def test_ceiling_of_36_dbm_is_accepted():
    assert MAX_EIRP_DBM == 36.0
    assert ProtectionConfig(regulatory_max_eirp_dbm=36.0).regulatory_max_eirp_dbm == 36.0
    assert decode_protection({"regulatoryMaxEirpDbm": 36}).regulatory_max_eirp_dbm == 36.0


def test_ceiling_above_36_dbm_is_rejected():
    above = math.nextafter(36.0, 37.0)
    with pytest.raises(ValueError, match="at most 36"):
        ProtectionConfig(regulatory_max_eirp_dbm=above)
    with pytest.raises(ScenarioParseError) as info:
        decode_protection({"regulatoryMaxEirpDbm": above})
    assert info.value.field == "protection"


def test_simulate_with_a_40_dbm_ceiling_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(base_doc(world={"protection": {"regulatoryMaxEirpDbm": 40}}))
    assert len(doc["aps"]) == 1
    (tmp_path / "hot.json").write_text(json.dumps(doc))
    assert main(["simulate", "hot.json"]) == 2
    err = capsys.readouterr().err
    assert "error: protection:" in err and "Traceback" not in err


# --- strict JSON ------------------------------------------------------------


@pytest.mark.parametrize("literal", LITERALS)
def test_cli_files_refuse_non_finite_literals(tmp_path, monkeypatch, capsys, literal):
    monkeypatch.chdir(tmp_path)
    text = json.dumps(request_doc()).replace('"majorAxisM": 0.0', f'"majorAxisM": {literal}')
    assert literal in text
    (tmp_path / "req.json").write_text(text)
    assert main(["inquire", "req.json"]) == 2
    err = capsys.readouterr().err
    assert f"request req.json: invalid JSON: {literal} is not a JSON number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", LITERALS)
def test_load_scenario_refuses_non_finite_literals(literal):
    doc = base_doc().replace('"at": 10', f'"at": {literal}')
    with pytest.raises(ScenarioParseError, match=f"invalid JSON: {literal} is not a JSON number"):
        load_scenario(doc)


@pytest.fixture
def service(database, policy, propagation, protection):
    svc = AfcService(database, policy, propagation, protection, now_fn=lambda: NOW)
    svc.start()
    yield svc
    svc.close()


def _exchange(service, raw: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes, read until the server closes; return status, headers and body."""
    with socket.create_connection((service.host, service.port), timeout=DEADLINE_S) as sock:
        sock.sendall(raw)
        reply = b""
        while chunk := sock.recv(65536):  # socket.timeout fails the test
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    headers = dict(line.split(b": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


def _post(body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (
        b"POST " + INQUIRY_PATH.encode() + b" HTTP/1.1\r\nHost: afc\r\nConnection: close\r\n"
        + b"Content-Length: " + str(length).encode() + b"\r\n\r\n" + body
    )


@pytest.mark.parametrize("literal", LITERALS)
def test_service_refuses_non_finite_literals(service, literal):
    text = json.dumps(encode_request(make_request())).replace('"heightM": 3.0', f'"heightM": {literal}')
    assert literal in text
    status, _, body = _exchange(service, _post(text.encode()))
    assert status == 200
    assert json.loads(body) == {"grants": [], "requestId": "REQ-7", "responseCode": "INVALID_REQUEST"}


# Deeper than the JSON parser's recursion limit, and under the 64 KiB body cap.
TOO_DEEP = "[" * 60_000


def test_load_scenario_refuses_nesting_too_deep():
    with pytest.raises(ScenarioParseError, match="invalid JSON: nested too deeply"):
        load_scenario(TOO_DEEP)


def test_service_answers_nesting_too_deep_with_invalid_request(service, capsys):
    status, _, body = _exchange(service, _post(TOO_DEEP.encode()))
    assert status == 200
    assert json.loads(body) == {"grants": [], "requestId": "", "responseCode": "INVALID_REQUEST"}
    # The service still answers.
    status, _, body = _exchange(service, _post(json.dumps(encode_request(make_request())).encode()))
    assert status == 200 and json.loads(body)["responseCode"] == "SUCCESS"
    assert "Traceback" not in capsys.readouterr().err


# --- service failures -------------------------------------------------------


def test_short_body_times_out_with_a_reply(service, monkeypatch):
    # The handler class reads its socket timeout when each connection opens.
    monkeypatch.setattr(wire._InquiryHandler, "timeout", 0.5)
    start = time.monotonic()
    status, headers, body = _exchange(service, _post(b"{", length=100))
    assert time.monotonic() - start < DEADLINE_S
    assert status == 408
    assert headers[b"Connection"] == b"close"
    assert set(json.loads(body)) == {"error"}
    # The service still answers.
    status, _, body = _exchange(service, _post(json.dumps(encode_request(make_request())).encode()))
    assert status == 200 and json.loads(body)["responseCode"] == "SUCCESS"


@pytest.mark.parametrize("whole_body", [False, True], ids=["mid-body", "before-reply"])
def test_client_reset_prints_no_traceback(service, capsys, whole_body):
    request = json.dumps(encode_request(make_request())).encode()
    with socket.create_connection((service.host, service.port), timeout=DEADLINE_S) as sock:
        sock.sendall(_post(request) if whole_body else _post(b"{", length=100))
        # Linger 0: close() sends a reset, which the handler meets while it reads
        # the body or writes the reply.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    status, _, body = _exchange(service, _post(request))
    assert status == 200 and json.loads(body)["responseCode"] == "SUCCESS"
    time.sleep(0.5)
    assert "Traceback" not in capsys.readouterr().err


def test_handler_socket_timeout_is_finite():
    assert 0.0 < wire._InquiryHandler.timeout < math.inf


def test_failure_inside_handle_inquiry_gets_a_500(service, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(wire, "handle_inquiry", broken)
    status, headers, body = _exchange(service, _post(json.dumps(encode_request(make_request())).encode()))
    assert status == 500
    assert headers[b"Connection"] == b"close"
    assert headers[b"Content-Type"] == b"application/json"
    assert json.loads(body) == {"error": "internal error"}
    assert "RuntimeError: engine fault" in capsys.readouterr().err


def test_failure_inside_encode_response_gets_a_500(service, monkeypatch, capsys):
    real = wire.dumps_response

    def broken(resp):
        if resp.response_code is ResponseCode.SUCCESS:
            raise RuntimeError("encoder fault")
        return real(resp)

    monkeypatch.setattr(wire, "dumps_response", broken)
    status, headers, body = _exchange(service, _post(json.dumps(encode_request(make_request())).encode()))
    assert status == 500
    assert headers[b"Connection"] == b"close"
    assert json.loads(body) == {"error": "internal error"}
    assert "RuntimeError: encoder fault" in capsys.readouterr().err


# --- numbers beyond the float range -----------------------------------------

HUGE = 10**400  # a 401-digit integer literal, which float() cannot convert

SPOOFER = {
    "position": {"latitude": 40.0, "longitude": -77.001},
    "broadcastPosition": {"latitude": 30.0, "longitude": -101.0},
    "txPowerDbm": 10.0,
}


def test_get_num_refuses_a_huge_integer_by_name():
    with pytest.raises(ScenarioParseError) as info:
        wire.get_num({"heightM": HUGE}, "heightM", "request")
    assert info.value.field == "request.heightM"
    assert str(info.value) == "request.heightM: integer too large for a float"


@pytest.mark.parametrize(
    "overrides, text",
    [
        ({"spoofers": [dict(SPOOFER, txPowerDbm=HUGE)]}, "spoofers[0].txPowerDbm: integer too large"),
        ({"spoofers": [dict(SPOOFER, activeWindow=[0, -HUGE])]}, "spoofers[0].activeWindow: integer too large"),
        ({"aps": [{"serial": "AP-1", "truePosition": {"latitude": 40.0, "longitude": -77.0}, "heightM": HUGE}]},
         "aps[0].heightM: integer too large"),
    ],
    ids=["txPowerDbm", "activeWindow", "heightM"],
)
def test_simulate_with_a_huge_integer_exits_2(tmp_path, monkeypatch, capsys, overrides, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.json").write_text(base_doc(**overrides))
    assert main(["simulate", "huge.json"]) == 2
    err = capsys.readouterr().err
    assert f"error: {text}" in err and "Traceback" not in err


def test_service_answers_a_huge_integer_with_invalid_request(service, capsys):
    obj = encode_request(make_request())
    obj["heightM"] = HUGE
    status, _, body = _exchange(service, _post(json.dumps(obj).encode()))
    assert status == 200
    assert json.loads(body) == {"grants": [], "requestId": "REQ-7", "responseCode": "INVALID_REQUEST"}
    assert "Traceback" not in capsys.readouterr().err


# --- grant expiries that are not dates --------------------------------------


@pytest.mark.parametrize("lifetime", [math.inf, -math.inf, math.nan])
def test_policy_refuses_a_non_finite_lifetime(lifetime):
    with pytest.raises(ValueError, match="grant lifetime must be finite"):
        ServerPolicy(grant_lifetime_s=lifetime)


@pytest.mark.parametrize("lifetime", [math.nextafter(MAX_GRANT_LIFETIME_S, math.inf), 2.5e11, 1e300])
def test_policy_refuses_a_lifetime_over_one_year(lifetime):
    assert MAX_GRANT_LIFETIME_S == 365 * 86_400
    assert ServerPolicy(grant_lifetime_s=MAX_GRANT_LIFETIME_S).grant_lifetime_s == MAX_GRANT_LIFETIME_S
    with pytest.raises(ValueError, match="grant lifetime must be at most 3.1536e[+]07 s"):
        ServerPolicy(grant_lifetime_s=lifetime)
    with pytest.raises(ScenarioParseError) as info:
        decode_policy({"grantLifetimeS": lifetime})
    assert info.value.field == "policy"


@pytest.mark.parametrize("tolerance", [math.inf, math.nan])
def test_policy_refuses_a_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError, match="timestamp tolerance must be finite"):
        ServerPolicy(gps_timestamp_tolerance_s=tolerance)


def test_request_whose_expiry_is_not_a_date_is_invalid(policy):
    last = wire.iso_to_epoch("9999-12-31T23:00:00Z")
    assert validate_request(make_request(gps_time=last), last, policy) is ResponseCode.INVALID_REQUEST
    # The longest lifetime a policy may set reaches past year 9999 from a
    # server clock in its last year, and not from today's.
    yearly = ServerPolicy(grant_lifetime_s=MAX_GRANT_LIFETIME_S)
    late = wire.iso_to_epoch("9999-06-01T00:00:00Z")
    assert validate_request(make_request(gps_time=late), late, yearly) is ResponseCode.INVALID_REQUEST
    assert validate_request(make_request(gps_time=late), late, policy) is None
    assert validate_request(make_request(), NOW, yearly) is None
    assert validate_request(make_request(), NOW, policy) is None
    # A server clock before year 1 cannot issue a grant either.
    first = wire.iso_to_epoch("0001-01-01T00:00:00Z")
    early = ServerPolicy(gps_timestamp_tolerance_s=1.0)
    before = math.nextafter(first, -math.inf)
    assert validate_request(make_request(gps_time=before), before, early) is ResponseCode.INVALID_REQUEST
    assert validate_request(make_request(gps_time=first), first, early) is None


@pytest.mark.parametrize(
    "gps_time, policy_doc, code, text",
    [
        ("9999-12-31T23:00:00Z", None, 0, "request REQ-1: INVALID_REQUEST"),
        ("9999-06-01T00:00:00Z", '{"grantLifetimeS": 31536000}', 0, "request REQ-1: INVALID_REQUEST"),
        (None, '{"grantLifetimeS": 1e300}', 2, "error: policy: grant lifetime must be at most 3.1536e+07 s"),
        (None, '{"grantLifetimeS": 1e999}', 2, "error: policy: grant lifetime must be finite"),
    ],
    ids=["year-9999", "lifetime-one-year", "lifetime-1e300", "lifetime-1e999"],
)
def test_inquire_whose_expiry_is_not_a_date(tmp_path, monkeypatch, capsys, gps_time, policy_doc, code, text):
    monkeypatch.chdir(tmp_path)
    doc = request_doc()
    if gps_time is not None:
        doc["location"]["gpsTime"] = gps_time
    (tmp_path / "req.json").write_text(json.dumps(doc))
    args = ["inquire", "req.json"]
    if policy_doc is not None:  # wrapped as text, so a literal such as 1e999 reaches the parser as written
        (tmp_path / "world.json").write_text(f'{{"policy": {policy_doc}}}')
        args += ["--world", "world.json"]
    assert main(args) == code
    out = capsys.readouterr()
    assert text in out.out + out.err
    assert "Traceback" not in out.err


def test_service_with_a_lifetime_past_year_9999_answers(database, propagation, protection, capsys):
    # A one-year lifetime reaches past year 9999 from a clock in its last year.
    policy = decode_policy({"grantLifetimeS": MAX_GRANT_LIFETIME_S})
    late = wire.iso_to_epoch("9999-06-01T00:00:00Z")
    request = json.dumps(encode_request(make_request(gps_time=late))).encode()
    with AfcService(database, policy, propagation, protection, now_fn=lambda: late) as svc:
        status, _, body = _exchange(svc, _post(request))
    assert status == 200
    assert json.loads(body) == {"grants": [], "requestId": "REQ-7", "responseCode": "INVALID_REQUEST"}
    assert "Traceback" not in capsys.readouterr().err


# --- infinite scenario fields -----------------------------------------------


AP = {"serial": "AP-1", "truePosition": {"latitude": 40.0, "longitude": -77.0}}
BOX = {"latMin": 24.5, "latMax": 49.5, "lonMin": -125.0, "lonMax": -66.9}


@pytest.mark.parametrize(
    "overrides, text",
    [
        ({"gnss": {"captureMarginDb": math.inf}}, "gnss: capture margin must be finite and within ±1000 dB"),
        ({"gnss": {"captureMarginDb": -math.inf}}, "gnss: capture margin must be finite and within ±1000 dB"),
        ({"detection": {"groupThresholdM": math.inf}}, "detection: group threshold must be finite and >= 0"),
        ({"spoofers": [dict(SPOOFER, txPowerDbm=math.inf)]}, "spoofers[0]: transmit power must be finite and within ±1000 dBm"),
        ({"aps": [dict(AP, legitPowerDbm=math.inf)]}, "aps[0]: legit power must be finite and within ±1000 dBm"),
        ({"aps": [dict(AP, legitPowerDbm=-math.inf)]}, "aps[0]: legit power must be finite and within ±1000 dBm"),
        ({"world": {"policy": {"gpsTimestampToleranceS": math.inf}}}, "policy: timestamp tolerance must be finite"),
        ({"world": {"policy": {"coverage": [dict(BOX, latMin=-math.inf)]}}}, "coverage[0]: coverage box bounds must be finite"),
        ({"world": {"policy": {"coverage": [dict(BOX, lonMax=math.inf)]}}}, "coverage[0]: coverage box bounds must be finite"),
    ],
    ids=[
        "captureMarginDb", "captureMarginDb-neg", "groupThresholdM", "txPowerDbm", "legitPowerDbm",
        "legitPowerDbm-neg", "gpsTimestampToleranceS", "coverage-latMin", "coverage-lonMax",
    ],
)
def test_infinite_scenario_fields_are_refused(tmp_path, monkeypatch, capsys, overrides, text):
    doc = base_doc(**overrides)
    assert "1e400" in doc
    with pytest.raises((ScenarioParseError, ScenarioValidationError)) as info:
        load_scenario(doc)
    assert str(info.value) == text
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.json").write_text(doc)
    assert main(["simulate", "inf.json"]) == 2
    err = capsys.readouterr().err
    assert f"error: {text}" in err and "Traceback" not in err


@pytest.mark.parametrize("threshold", [-5.0, -5e-324, -math.inf])
def test_negative_group_threshold_is_refused(tmp_path, monkeypatch, capsys, threshold):
    # A negative threshold would alarm on every group, a spoofer or none.
    doc = base_doc(detection={"groupThresholdM": threshold})
    with pytest.raises(ScenarioValidationError, match=r"^detection: group threshold must be finite and >= 0$"):
        load_scenario(doc)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "neg.json").write_text(doc)
    assert main(["simulate", "neg.json"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("threshold", [0.0, -0.0, 5e-324])
def test_group_threshold_at_zero_loads(threshold):
    assert load_scenario(base_doc(detection={"groupThresholdM": threshold})).group_threshold_m == threshold


def test_finite_scenario_fields_still_load():
    doc = base_doc(
        gnss={"captureMarginDb": -3.0},
        detection={"groupThresholdM": 0.0},
        aps=[dict(AP, legitPowerDbm=-130.0)],
        spoofers=[dict(SPOOFER, txPowerDbm=-10.0)],
        world={"policy": {"gpsTimestampToleranceS": 0.0, "coverage": [BOX]}},
    )
    assert load_scenario(doc).capture_margin_db == -3.0


# --- dB terms and GNSS noise whose sums overflow ----------------------------
# Found by tests/test_fuzz.py: each value below is finite, yet the model
# derived an infinite noise floor, I/N or ellipse axis from it, or overflowed
# while quantizing a grant.


@pytest.mark.parametrize(
    "field, edge",
    [
        ("bandwidth_mhz", 1200.0),
        ("noise_figure_db", 1000.0),
        ("max_gain_dbi", 1000.0),
        ("max_gain_dbi", -1000.0),
        ("discrimination_db", 1000.0),
    ],
)
def test_link_terms_are_bounded(fs_link, field, edge):
    assert getattr(dataclasses.replace(fs_link, **{field: edge}), field) == edge
    with pytest.raises(ValueError, match="band|within"):
        dataclasses.replace(fs_link, **{field: math.nextafter(edge, math.copysign(math.inf, edge))})


@pytest.mark.parametrize(
    "make, edge",
    [
        (lambda v: PropagationConfig(clutter_offset_db=v), 1000.0),
        (lambda v: ProtectionConfig(i_over_n_limit_db=v), 1000.0),
        (lambda v: ProtectionConfig(i_over_n_limit_db=v), -1000.0),
        (lambda v: ProtectionConfig(min_useful_eirp_dbm=v), -1000.0),
    ],
    ids=["clutter", "limit-high", "limit-low", "min-useful"],
)
def test_config_db_terms_are_bounded(make, edge):
    make(edge)
    with pytest.raises(ValueError, match=r"within ±1000 dB"):
        make(math.nextafter(edge, math.copysign(math.inf, edge)))


def test_gnss_noise_is_bounded_by_the_earth():
    GnssNoiseModel(sigma_m=EARTH_RADIUS_M / 2.0, ellipse_scale=2.0)
    for sigma, scale in ((math.nextafter(EARTH_RADIUS_M / 2.0, math.inf), 2.0), (1e308, 2.0), (5.0, 1e308)):
        with pytest.raises(ValueError, match="Earth's radius"):
            GnssNoiseModel(sigma_m=sigma, ellipse_scale=scale)


@pytest.mark.parametrize(
    "overrides, text",
    [
        ({"world": {"database": {"fsLinks": [dict(LINK_DOC, bandwidthMhz=1e308)]}}},
         "fsLinks[0]: bandwidth must be at most the 1200 MHz band"),
        ({"world": {"database": {"fsLinks": [dict(LINK_DOC, maxGainDbi=1e308)]}}},
         "fsLinks[0]: noise figure, gain and discrimination must be within ±1000 dB"),
        ({"world": {"protection": {"minUsefulEirpDbm": -1e308}}},
         "protection: I/N limit and useful minimum EIRP must be within ±1000 dB"),
        ({"gnss": {"sigmaM": 1e308}}, "gnss: sigma times ellipse scale must be at most the Earth's radius"),
        ({"aps": [dict(AP, heightM=math.inf)]}, "aps[0]: height must be finite"),
        ({"aps": [dict(AP, heightM=-1.0)]}, "aps[0]: height must be finite and >= 0"),
        ({"aps": [dict(AP, certificationId=7)]}, "aps[0].certificationId: must be a string"),
    ],
    ids=["bandwidth", "gain", "min-useful", "gnss-sigma", "ap-height", "ap-height-negative", "certification-id"],
)
def test_simulate_refuses_what_the_model_cannot_carry(tmp_path, monkeypatch, capsys, overrides, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edge.json").write_text(base_doc(**overrides))
    assert main(["simulate", "edge.json"]) == 2
    err = capsys.readouterr().err
    assert f"error: {text}" in err and "Traceback" not in err


def test_extreme_db_terms_within_bounds_give_a_finite_report():
    # The clutter offset and the gain at their bounds once drove harm I/N to -inf.
    # The receiver is 5.6 km north of the AP, beyond the 1 km clutter threshold.
    link = dict(LINK_DOC, rxLocation={"latitude": 40.05, "longitude": -77.0}, maxGainDbi=-1000.0)
    doc = base_doc(world={"database": {"fsLinks": [link]}, "propagation": {"clutterOffsetDb": 1000.0}})
    report = run_scenario(load_scenario(doc))
    assert report.harm_rows
    assert all(-4000.0 < r.i_over_n_db < -2000.0 for r in report.harm_rows)
    wire.loads_strict(report.dumps())
