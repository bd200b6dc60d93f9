"""Input boundaries that must fail cleanly: the EIRP ceiling, strict JSON, and
HTTP clients that stall or hit a failure inside the service."""

import json
import math
import socket
import struct
import time

import pytest

from afcsim import wire
from afcsim.cli import main
from afcsim.errors import ScenarioParseError
from afcsim.propagation import MAX_EIRP_DBM, ProtectionConfig
from afcsim.scenario import load_scenario
from afcsim.wire import INQUIRY_PATH, AfcService, decode_protection, encode_request
from tests.test_cli import request_doc
from tests.test_scenario import base_doc
from tests.test_wire import NOW, make_request

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
