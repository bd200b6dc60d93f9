"""Wire protocol: JSON codecs, time formatting, and the HTTP service.

The service speaks HTTP/1.1 with a single route, POST
/availableSpectrumInquiry, carrying camelCase JSON both ways. All wire
times are ISO-8601 UTC strings with a trailing Z; dBm values serialize
with at most two decimal places. Malformed bodies never raise to the
transport: they come back as 200 INVALID_REQUEST responses (echoing the
requestId when one could be recovered) on a connection kept open. Every
error status, the handler's or http.server's own (a repeated Content-Length
is a 400), is one JSON {"error": ...} object with Connection: close.
"""

from __future__ import annotations

import json
import math
import threading
import time
import traceback
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii

from . import server
from .channels import CHANNELS, ChannelId, FrequencyRange
from .errors import ScenarioParseError
from .geo import Geofence, GeoPoint, LocationEllipse
from .propagation import FsLink, PropagationConfig, ProtectionConfig
from .server import (
    ChannelGrant,
    CoverageBox,
    ExclusionZone,
    IncumbentDatabase,
    ResponseCode,
    ServerPolicy,
    SpectrumInquiryRequest,
    SpectrumInquiryResponse,
    World,
    handle_inquiry,
)

INQUIRY_PATH = "/availableSpectrumInquiry"
MAX_BODY_BYTES = 64 * 1024
# Seconds a connection may stall on one read or write before the handler drops it.
SOCKET_TIMEOUT_S = 10.0


class RequestDecodeError(Exception):
    """A request body that cannot be decoded; carries any recoverable id."""

    def __init__(self, message: str, request_id: str = ""):
        super().__init__(message)
        self.request_id = request_id


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def loads_strict(text):
    """json.loads without the NaN, Infinity and -Infinity literals it admits by default.

    Such a literal, or nesting deeper than the parser's recursion limit,
    raises ValueError; malformed JSON raises JSONDecodeError, a subclass of it.
    """
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except RecursionError:
        raise ValueError("nested too deeply") from None


def parse_json(text, field: str | None = None):
    """loads_strict(text), its failure a ScenarioParseError that names the line."""
    try:
        return loads_strict(text)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"invalid JSON at line {e.lineno}: {e.msg}", field=field) from e
    except ValueError as e:
        raise ScenarioParseError(f"invalid JSON: {e}", field=field) from e


def build(cls, where: str, *args, **kwargs):
    """cls(*args, **kwargs), a ValueError from its checks a ScenarioParseError for the record at where."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise ScenarioParseError(str(e), field=where) from e


# ---------------------------------------------------------------------------
# Time formatting. Internal times are float UTC epoch seconds; the renderers
# accept those for which is_date (defined in server) holds.

_UNIX_EPOCH = datetime(1970, 1, 1)


@lru_cache(maxsize=8)
def _utc_seconds(whole_s: int, sep: str) -> str:
    """YYYY-MM-DD{sep}HH:MM:SS in UTC, the year zero-padded (strftime's %Y is not before 1000).

    whole_s is math.floor of an epoch. The text is cached per (whole_s, sep):
    the service stamps each reply with the wall clock as issue time and that
    plus the grant lifetime as expiry, so every reply after the first in a
    second reuses both. lru_cache caches no exception, so a date out of range
    raises on every call.
    """
    return (_UNIX_EPOCH + timedelta(seconds=whole_s)).isoformat(sep, "seconds")


def epoch_to_iso(epoch_s: float) -> str:
    return _utc_seconds(math.floor(epoch_s), "T") + "Z"


def iso_to_epoch(text: str) -> float:
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def epoch_to_clock(epoch_s: float) -> str:
    """Console-report style: YYYY-MM-DD HH:MM:SS in UTC."""
    return _utc_seconds(math.floor(epoch_s), " ")


# ---------------------------------------------------------------------------
# Field access helpers for document decoding.

# get_field, get_num, get_nums and get_present return what a JSON document
# holds (a key of an object, an exact float) at once; any other value takes
# the general checks, so every refusal and error is theirs.

def get_field(obj: dict, key: str, where: str):
    try:
        return obj[key]
    except (KeyError, TypeError, IndexError):  # absent, or obj is no object
        raise ScenarioParseError("missing field", field=f"{where}.{key}") from None


def get_num(obj: dict, key: str, where: str) -> float:
    v = get_field(obj, key, where)
    if type(v) is float:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioParseError("must be a number", field=f"{where}.{key}")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the float range
        raise ScenarioParseError("integer too large for a float", field=f"{where}.{key}") from None


def get_nums(obj: dict, where: str, *keys: str) -> list[float]:
    """The numbers at keys, read in order as get_num reads each, in one call."""
    get = obj.get if type(obj) is dict else {}.get  # not an object: get_num refuses it
    nums = []
    for key in keys:  # a plain loop: a comprehension costs a call of its own before 3.12
        v = get(key)
        nums.append(v if type(v) is float else get_num(obj, key, where))
    return nums


def get_present(obj: dict, where: str, **fields: str) -> dict[str, float]:
    """{field: number} for each field=key obj holds, read in order as get_nums reads each; absent keys are left out."""
    present = {}
    for name, key in fields.items():
        if key in obj:
            v = obj[key]
            present[name] = v if type(v) is float else get_num(obj, key, where)
    return present


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def get_int(obj: dict, key: str, where: str) -> int:
    v = get_field(obj, key, where)
    if not _is_int(v):
        raise ScenarioParseError("must be an integer", field=f"{where}.{key}")
    return v


def get_text(obj: dict, key: str, where: str) -> str:
    v = get_field(obj, key, where)
    if not isinstance(v, str):
        raise ScenarioParseError("must be a string", field=f"{where}.{key}")
    return v


def get_int_list(obj: dict, key: str, where: str) -> tuple[int, ...]:
    v = get_field(obj, key, where)
    if not isinstance(v, list) or not all(_is_int(b) for b in v):
        raise ScenarioParseError("must be a list of integers", field=f"{where}.{key}")
    return tuple(v)


def _get_optional(obj: dict, key: str, where: str, kind: type, what: str):
    if not isinstance(obj, dict):
        raise ScenarioParseError("must be an object", field=where)
    v = obj.get(key, kind())
    if not isinstance(v, kind):
        raise ScenarioParseError(f"must be {what}", field=f"{where}.{key}")
    return v


def get_obj(obj: dict, key: str, where: str) -> dict:
    """An optional object field; absent reads as {}."""
    return _get_optional(obj, key, where, dict, "an object")


def get_list(obj: dict, key: str, where: str) -> list:
    """An optional list field; absent reads as []."""
    return _get_optional(obj, key, where, list, "a list")


def decode_geopoint(obj: dict, where: str = "point") -> GeoPoint:
    lat, lon = get_nums(obj, where, "latitude", "longitude")  # obj is an object past this read
    if "heightM" not in obj:  # two call sites: splatting a height tuple costs about 2 % of a link's decode
        return build(GeoPoint, where, lat, lon)
    return build(GeoPoint, where, lat, lon, get_num(obj, "heightM", where))


def decode_geofence(obj: dict, where: str = "geofence") -> Geofence:
    center = decode_geopoint(get_field(obj, "center", where), f"{where}.center")
    return build(Geofence, where, center, get_num(obj, "radiusM", where))


def decode_freq_range(obj: dict, where: str = "freqRange") -> FrequencyRange:
    low, high = get_nums(obj, where, "lowMhz", "highMhz")
    return build(FrequencyRange, where, low, high)


def decode_fs_link(obj: dict, where: str = "fsLink") -> FsLink:
    link_id = get_text(obj, "id", where)
    rx = decode_geopoint(get_field(obj, "rxLocation", where), f"{where}.rxLocation")
    band = decode_freq_range(get_field(obj, "freqRange", where), f"{where}.freqRange")
    bandwidth, noise_figure, gain, azimuth, beamwidth, discrimination = get_nums(
        obj, where, "bandwidthMhz", "noiseFigureDb", "maxGainDbi", "azimuthDeg", "beamwidthDeg", "discriminationDb"
    )
    return build(FsLink, where, link_id, rx, band, bandwidth, noise_figure, gain, azimuth, beamwidth, discrimination)


def decode_database(obj: dict) -> IncumbentDatabase:
    links = [
        decode_fs_link(o, f"fsLinks[{i}]")
        for i, o in enumerate(get_list(obj, "fsLinks", "database"))
    ]
    ids = [link.id for link in links]
    if len(set(ids)) < len(ids):  # harm is reported, and its worst I/N kept, per link id
        i = next(i for i, link_id in enumerate(ids) if link_id in ids[:i])
        raise ScenarioParseError(f"duplicate link id {ids[i]!r}", field=f"fsLinks[{i}].id")
    zones = [
        ExclusionZone(
            zone=decode_geofence(get_field(o, "zone", f"exclusionZones[{i}]"), f"exclusionZones[{i}].zone"),
            banned=decode_freq_range(get_field(o, "banned", f"exclusionZones[{i}]"), f"exclusionZones[{i}].banned"),
        )
        for i, o in enumerate(get_list(obj, "exclusionZones", "database"))
    ]
    return IncumbentDatabase(fs_links=tuple(links), exclusion_zones=tuple(zones))


def decode_propagation(obj: dict) -> PropagationConfig:
    fields = get_present(obj, "propagation", regime_threshold_m="regimeThresholdM", clutter_offset_db="clutterOffsetDb")
    return build(PropagationConfig, "propagation", **fields)


def decode_protection(obj: dict) -> ProtectionConfig:
    fields = get_present(
        obj,
        "protection",
        i_over_n_limit_db="iOverNLimitDb",
        regulatory_max_eirp_dbm="regulatoryMaxEirpDbm",
        min_useful_eirp_dbm="minUsefulEirpDbm",
    )
    return build(ProtectionConfig, "protection", **fields)


def decode_policy(obj: dict) -> ServerPolicy:
    boxes = []
    for i, b in enumerate(get_list(obj, "coverage", "policy")):
        where = f"coverage[{i}]"
        lat_min, lat_max, lon_min, lon_max = get_nums(b, where, "latMin", "latMax", "lonMin", "lonMax")
        boxes.append(build(CoverageBox, where, lat_min, lat_max, lon_min, lon_max))
    registry = {
        serial: decode_geofence(g, f"geofences[{serial}]")
        for serial, g in get_obj(obj, "geofences", "policy").items()
    }
    fields = get_present(
        obj, "policy", grant_lifetime_s="grantLifetimeS", gps_timestamp_tolerance_s="gpsTimestampToleranceS"
    )
    if boxes:  # an empty list, like an absent one, leaves the model's coverage
        fields["coverage"] = tuple(boxes)
    return build(ServerPolicy, "policy", geofence_registry=registry, **fields)


def decode_world(obj: dict, where: str) -> World:
    """A world document: a scenario's world object, or a world file of the CLI.

    Each part is an optional object; an absent one takes its model's
    defaults. The policy is decoded first, then the database, propagation
    and protection, so of two bad parts the first in that order is named.
    """
    policy = decode_policy(get_obj(obj, "policy", where))
    return World(
        decode_database(get_obj(obj, "database", where)),
        policy,
        decode_propagation(get_obj(obj, "propagation", where)),
        decode_protection(get_obj(obj, "protection", where)),
    )


# ---------------------------------------------------------------------------
# Inquiry request/response codecs.

def decode_request(obj) -> SpectrumInquiryRequest:
    if not isinstance(obj, dict):
        raise RequestDecodeError("request body must be a JSON object")
    rid = obj.get("requestId")
    rid = rid if isinstance(rid, str) else ""
    try:
        loc_obj = get_field(obj, "location", "request")
        center = GeoPoint(*get_nums(loc_obj, "location", "latitude", "longitude"))
        major, minor, orientation = get_nums(loc_obj, "location", "majorAxisM", "minorAxisM", "orientationDeg")
        ellipse = LocationEllipse(
            center=center,
            major_axis_m=major,
            minor_axis_m=minor,
            orientation_deg=orientation,
            gps_time=iso_to_epoch(get_text(loc_obj, "gpsTime", "location")),
        )
        bandwidths = get_int_list(obj, "inquiredBandwidthsMhz", "request")
        authenticated = get_field(obj, "transportAuthenticated", "request")
        if not isinstance(authenticated, bool):
            raise RequestDecodeError("transportAuthenticated must be a boolean", rid)
        return SpectrumInquiryRequest(
            request_id=get_text(obj, "requestId", "request"),
            device_serial=get_text(obj, "deviceSerial", "request"),
            certification_id=get_text(obj, "certificationId", "request"),
            location=ellipse,
            height_m=get_num(obj, "heightM", "request"),
            inquired_bandwidths=bandwidths,
            transport_authenticated=authenticated,
        )
    except (ScenarioParseError, ValueError) as e:
        raise RequestDecodeError(str(e), rid) from e


def encode_request(req: SpectrumInquiryRequest) -> dict:
    return {
        "requestId": req.request_id,
        "deviceSerial": req.device_serial,
        "certificationId": req.certification_id,
        "location": {
            "latitude": req.location.center.lat_deg,
            "longitude": req.location.center.lon_deg,
            "majorAxisM": req.location.major_axis_m,
            "minorAxisM": req.location.minor_axis_m,
            "orientationDeg": req.location.orientation_deg,
            "gpsTime": epoch_to_iso(req.location.gps_time),
        },
        "heightM": req.height_m,
        "inquiredBandwidthsMhz": list(req.inquired_bandwidths),
        "transportAuthenticated": req.transport_authenticated,
    }


def encode_channel(ch: ChannelId) -> dict:
    out = {"bandwidthMhz": ch.bandwidth_mhz, "cfi": ch.cfi}
    if ch.variant is not None:
        out["variant"] = ch.variant
    return out


def encode_grant(g: ChannelGrant) -> dict:
    return {**encode_channel(g.channel), "maxEirpDbm": round(g.max_eirp_dbm, 2)}


def encode_response(resp: SpectrumInquiryResponse) -> dict:
    out: dict = {
        "requestId": resp.request_id,
        "responseCode": resp.response_code.value,
        "grants": [encode_grant(g) for g in resp.grants],
    }
    if resp.response_code is ResponseCode.SUCCESS:
        out["countryCode"] = resp.country_code
        out["issueTime"] = epoch_to_iso(resp.issue_time)
        out["expireTime"] = epoch_to_iso(resp.expire_time)
    return out


_EIRP_KEY = '"maxEirpDbm": '


def _grant_fragments(ch: ChannelId) -> tuple[str, str]:
    """What json.dumps(sort_keys=True) writes for a grant on ch before and after its EIRP."""
    text = json.dumps(encode_grant(ChannelGrant(ch, 0.0)), sort_keys=True)
    head, _, tail = text.partition(_EIRP_KEY + "0.0")
    return head + _EIRP_KEY, tail


# The grant text of each authorized channel around the EIRP, keyed by the id of
# its canonical instance in channels.CHANNELS. CHANNELS keeps those alive for
# the whole process, so no other object can take one of these ids, and no grant
# pays for the dataclass __hash__ of its channel.
_GRANT_TEXT: dict[int, tuple[str, str]] = {id(ch): _grant_fragments(ch) for ch in CHANNELS}


def _grant_text(g: ChannelGrant) -> str:
    """What json.dumps(encode_grant(g), sort_keys=True) writes.

    A canonical channel takes its fragments from _GRANT_TEXT; any other, even
    an equal one, has them built. The EIRP (a float, as in every grant the
    server makes) is written as json writes round(eirp, 2).
    """
    head, tail = _GRANT_TEXT.get(id(g.channel)) or _grant_fragments(g.channel)
    return f"{head}{float.__repr__(round(g.max_eirp_dbm, 2))}{tail}"


# The text of every shared ceiling grant, keyed by the grant's id, and the
# server.CEILING_GRANTS dict it was filled from. That dict keeps each of those
# grants alive as long as this pair holds it, so no other object can take one
# of these ids, and it never changes once published, so the fill reads a fixed
# snapshot. The pair is replaced in one assignment, never changed in place.
_SHARED_TEXT: tuple[dict, dict[int, str]] = ({}, {})


def _shared_text(table: dict) -> dict[int, str]:
    """The text of each grant in table, a published server.CEILING_GRANTS, keyed by its id."""
    global _SHARED_TEXT
    built, texts = _SHARED_TEXT
    if built is not table:
        # built keeps the grants keyed in texts alive, so an id found there is g's own.
        texts = {id(g): texts.get(id(g)) or _grant_text(g) for grants in table.values() for g in grants}
        _SHARED_TEXT = table, texts
    return texts


def _json_text(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def dumps_response(resp: SpectrumInquiryResponse) -> str:
    """Canonical byte-stable serialization of a response.

    Equals json.dumps(encode_response(resp), sort_keys=True) byte for byte,
    but is written directly, with neither. A shared ceiling grant (64 of the
    75 in an average inquiry_conus answer) is found by its id in
    _SHARED_TEXT, which wrote its text when its table was first seen; any
    other grant, even an equal one, is written by _grant_text. Dates come
    from _utc_seconds, once per second.
    """
    shared = _shared_text(server.CEILING_GRANTS).get
    listed = f'"grants": [{", ".join([shared(id(g)) or _grant_text(g) for g in resp.grants])}]'
    code = resp.response_code
    ids = f'"requestId": {_json_text(resp.request_id)}, "responseCode": {encode_basestring_ascii(code.value)}'
    if code is not ResponseCode.SUCCESS:
        return f"{{{listed}, {ids}}}"
    return (
        f'{{"countryCode": {_json_text(resp.country_code)}, "expireTime": "{epoch_to_iso(resp.expire_time)}", '
        f'{listed}, "issueTime": "{epoch_to_iso(resp.issue_time)}", {ids}}}'
    )


# ---------------------------------------------------------------------------
# HTTP service.

def _request_id_of(body: bytes) -> str:
    """The requestId of a refused body that plain json.loads still reads, else ""."""
    try:
        obj = json.loads(body)
    except (ValueError, RecursionError):
        return ""
    rid = obj.get("requestId") if isinstance(obj, dict) else None
    return rid if isinstance(rid, str) else ""


class _InquiryHandler(BaseHTTPRequestHandler):
    server_version = "afcsim"
    protocol_version = "HTTP/1.1"
    # The version an error reply is framed in when the request line cannot be read; http.server's
    # own default, HTTP/0.9, would send the JSON body with no status line.
    default_request_version = "HTTP/1.0"
    # A socket timeout, so a client that sends less than its Content-Length
    # (or nothing) frees the handler thread instead of pinning it.
    timeout = SOCKET_TIMEOUT_S
    # TCP_NODELAY on each connection. A reply goes out in two writes, headers then body, and with
    # Nagle's algorithm the body would wait for the ACK of the headers, which a kept-alive client
    # delays (up to 40 ms on Linux): about 44 ms per request on one http.client connection.
    disable_nagle_algorithm = True

    def _send(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if status >= 400:  # an error may leave its body unread: the handler drops the connection after it
                self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)
        except ConnectionError:  # the client left before its reply: no one to tell
            self.close_connection = True

    def send_error(self, code, message=None, explain=None):
        """Every refusal, the handler's and http.server's own, as one JSON object; explain is not sent."""
        self._send(code, json.dumps({"error": message or self.responses[code][0]}))

    def do_POST(self):  # noqa: N802  (http.server naming)
        if self.path != INQUIRY_PATH:
            self.send_error(404, f"unknown path {self.path}")
            return
        if "Transfer-Encoding" in self.headers:  # its framing is not read: the body is Content-Length bytes
            self.send_error(411, "Transfer-Encoding is not accepted; send a Content-Length")
            return
        lengths = self.headers.get_all("Content-Length", ["0"])
        text = lengths[0].strip()
        if len(lengths) > 1 or not (text.isascii() and text.isdigit()):  # two lengths frame the stream two ways
            self.send_error(400, "Content-Length must be one decimal byte count")
            return
        try:
            length = int(text)
        except ValueError:  # more digits than int() converts
            length = MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            self.send_error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return
        svc = self.server.service  # type: ignore[attr-defined]
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.send_error(408, f"body not received within {self.timeout} s")
            return
        except ConnectionError:  # the client reset the connection: no one to reply to
            self.close_connection = True
            return
        try:
            req = decode_request(loads_strict(body))
        except (RequestDecodeError, ValueError):  # a refused field, malformed JSON or UTF-8, NaN, or deep nesting
            resp = SpectrumInquiryResponse(_request_id_of(body), ResponseCode.INVALID_REQUEST)
            self._send(200, dumps_response(resp))
            return
        try:
            resp = handle_inquiry(
                req, svc.now_fn(), svc.db, svc.policy, svc.propagation, svc.protection
            )
            reply = dumps_response(resp)
        except Exception:  # the service keeps running: report, then reply 500
            traceback.print_exc()
            self.send_error(500, "internal error")
            return
        self._send(200, reply)

    def do_GET(self):  # noqa: N802
        self.send_error(405, "POST only")

    def log_message(self, fmt, *args):
        pass


class AfcService:
    """The inquiry endpoint bound to one database/policy/model bundle.

    now_fn supplies server time; live serving uses the wall clock, tests
    and the simulator inject logical time.
    """

    def __init__(
        self,
        db: IncumbentDatabase,
        policy: ServerPolicy,
        propagation: PropagationConfig,
        protection: ProtectionConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        now_fn=time.time,
    ):
        self.db = db
        self.policy = policy
        self.propagation = propagation
        self.protection = protection
        self.now_fn = now_fn
        self._httpd = ThreadingHTTPServer((host, port), _InquiryHandler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._served = False  # whether a serve_forever loop was started

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        self._served = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._served = True
        self._httpd.serve_forever()

    def close(self) -> None:
        if self._served:  # shutdown() waits for a serve_forever loop to end: without one it never returns
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "AfcService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def post_inquiry(host: str, port: int, request_obj: dict, timeout: float = 10.0) -> dict:
    """Submit one inquiry over HTTP and return the decoded JSON body."""
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(request_obj).encode("utf-8")
        conn.request(
            "POST", INQUIRY_PATH, body=body, headers={"Content-Type": "application/json"}
        )
        reply = conn.getresponse()
        return json.loads(reply.read().decode("utf-8"))
    finally:
        conn.close()
