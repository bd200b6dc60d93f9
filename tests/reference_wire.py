"""The document getters and decoders as they stood before type-first field reads.

A verbatim copy of the field helpers and decoders of afcsim.wire, and of
afcsim.scenario.load_scenario, kept as the reference that
tests/test_decoder_exactness.py holds the shipped decoders to: on every
input, equal objects, or the same exception type, text and field.
Only the imports differ: the model types, the clock helpers and the
scenario validator come from the package. One fix is carried over: a
scenario name that is not a string is refused as "scenario.name" instead
of being replaced by the name argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

from afcsim import access_point as ap
from afcsim.channels import SUPPORTED_BANDWIDTHS_MHZ, FrequencyRange
from afcsim.detection import DEFAULT_GROUP_THRESHOLD_M
from afcsim.errors import ScenarioParseError
from afcsim.geo import Geofence, GeoPoint, LocationEllipse
from afcsim.gnss import DEFAULT_CAPTURE_MARGIN_DB, GnssNoiseModel
from afcsim.propagation import MAX_EIRP_DBM, FsLink, PropagationConfig, ProtectionConfig
from afcsim.scenario import ApSpec, Scenario, SpooferSpec, TimelineEvent, _validate
from afcsim.server import (
    CoverageBox,
    ExclusionZone,
    IncumbentDatabase,
    ServerPolicy,
    SpectrumInquiryRequest,
    World,
)
from afcsim.wire import RequestDecodeError, iso_to_epoch, loads_strict


def get_field(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ScenarioParseError("missing field", field=f"{where}.{key}")
    return obj[key]


def get_num(obj: dict, key: str, where: str, default=None) -> float:
    if default is not None and key not in obj:
        return float(default)
    v = get_field(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioParseError("must be a number", field=f"{where}.{key}")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the float range
        raise ScenarioParseError("integer too large for a float", field=f"{where}.{key}") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def get_int(obj: dict, key: str, where: str, default=None) -> int:
    if default is not None and key not in obj:
        return default
    v = get_field(obj, key, where)
    if not _is_int(v):
        raise ScenarioParseError("must be an integer", field=f"{where}.{key}")
    return v


def get_text(obj: dict, key: str, where: str) -> str:
    v = get_field(obj, key, where)
    if not isinstance(v, str):
        raise ScenarioParseError("must be a string", field=f"{where}.{key}")
    return v


def get_int_list(obj: dict, key: str, where: str, default=None) -> tuple[int, ...]:
    if default is not None and key not in obj:
        return tuple(default)
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
    try:
        return GeoPoint(
            lat_deg=get_num(obj, "latitude", where),
            lon_deg=get_num(obj, "longitude", where),
            height_m=get_num(obj, "heightM", where, default=0.0),
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field=where) from e


def decode_geofence(obj: dict, where: str = "geofence") -> Geofence:
    try:
        return Geofence(
            center=decode_geopoint(get_field(obj, "center", where), f"{where}.center"),
            radius_m=get_num(obj, "radiusM", where),
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field=where) from e


def decode_freq_range(obj: dict, where: str = "freqRange") -> FrequencyRange:
    try:
        return FrequencyRange(
            low_mhz=get_num(obj, "lowMhz", where), high_mhz=get_num(obj, "highMhz", where)
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field=where) from e


def decode_fs_link(obj: dict, where: str = "fsLink") -> FsLink:
    try:
        return FsLink(
            id=get_text(obj, "id", where),
            rx_location=decode_geopoint(get_field(obj, "rxLocation", where), f"{where}.rxLocation"),
            freq_range=decode_freq_range(get_field(obj, "freqRange", where), f"{where}.freqRange"),
            bandwidth_mhz=get_num(obj, "bandwidthMhz", where),
            noise_figure_db=get_num(obj, "noiseFigureDb", where),
            max_gain_dbi=get_num(obj, "maxGainDbi", where),
            azimuth_deg=get_num(obj, "azimuthDeg", where),
            beamwidth_deg=get_num(obj, "beamwidthDeg", where),
            discrimination_db=get_num(obj, "discriminationDb", where),
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field=where) from e


def decode_database(obj: dict) -> IncumbentDatabase:
    links = [
        decode_fs_link(o, f"fsLinks[{i}]")
        for i, o in enumerate(get_list(obj, "fsLinks", "database"))
    ]
    zones = [
        ExclusionZone(
            zone=decode_geofence(get_field(o, "zone", f"exclusionZones[{i}]"), f"exclusionZones[{i}].zone"),
            banned=decode_freq_range(get_field(o, "banned", f"exclusionZones[{i}]"), f"exclusionZones[{i}].banned"),
        )
        for i, o in enumerate(get_list(obj, "exclusionZones", "database"))
    ]
    return IncumbentDatabase(fs_links=tuple(links), exclusion_zones=tuple(zones))


def decode_propagation(obj: dict) -> PropagationConfig:
    try:
        return PropagationConfig(
            regime_threshold_m=get_num(obj, "regimeThresholdM", "propagation", default=1000.0),
            clutter_offset_db=get_num(obj, "clutterOffsetDb", "propagation", default=20.0),
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field="propagation") from e


def decode_protection(obj: dict) -> ProtectionConfig:
    try:
        return ProtectionConfig(
            i_over_n_limit_db=get_num(obj, "iOverNLimitDb", "protection", default=-6.0),
            regulatory_max_eirp_dbm=get_num(obj, "regulatoryMaxEirpDbm", "protection", default=MAX_EIRP_DBM),
            min_useful_eirp_dbm=get_num(obj, "minUsefulEirpDbm", "protection", default=21.0),
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field="protection") from e


def decode_policy(obj: dict) -> ServerPolicy:
    boxes = []
    for i, b in enumerate(get_list(obj, "coverage", "policy")):
        where = f"coverage[{i}]"
        try:
            boxes.append(
                CoverageBox(
                    lat_min_deg=get_num(b, "latMin", where),
                    lat_max_deg=get_num(b, "latMax", where),
                    lon_min_deg=get_num(b, "lonMin", where),
                    lon_max_deg=get_num(b, "lonMax", where),
                )
            )
        except ValueError as e:
            raise ScenarioParseError(str(e), field=where) from e
    registry = {
        serial: decode_geofence(g, f"geofences[{serial}]")
        for serial, g in get_obj(obj, "geofences", "policy").items()
    }
    try:
        policy = ServerPolicy(
            grant_lifetime_s=get_num(obj, "grantLifetimeS", "policy", default=86_400.0),
            gps_timestamp_tolerance_s=get_num(obj, "gpsTimestampToleranceS", "policy", default=60.0),
            coverage=tuple(boxes) if boxes else ServerPolicy().coverage,
            geofence_registry=registry,
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field="policy") from e
    return policy


def decode_request(obj) -> SpectrumInquiryRequest:
    if not isinstance(obj, dict):
        raise RequestDecodeError("request body must be a JSON object")
    rid = obj.get("requestId")
    rid = rid if isinstance(rid, str) else ""
    try:
        loc_obj = get_field(obj, "location", "request")
        ellipse = LocationEllipse(
            center=GeoPoint(
                lat_deg=get_num(loc_obj, "latitude", "location"),
                lon_deg=get_num(loc_obj, "longitude", "location"),
            ),
            major_axis_m=get_num(loc_obj, "majorAxisM", "location"),
            minor_axis_m=get_num(loc_obj, "minorAxisM", "location"),
            orientation_deg=get_num(loc_obj, "orientationDeg", "location"),
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
    except RequestDecodeError:
        raise
    except (ScenarioParseError, ValueError) as e:
        raise RequestDecodeError(str(e), rid) from e


def load_scenario(document: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        obj = loads_strict(document)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:
        raise ScenarioParseError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ScenarioParseError("scenario document must be a JSON object")

    seed_v = get_int(obj, "seed", "scenario", default=0)
    try:
        epoch_s = iso_to_epoch(get_text(obj, "epoch", "scenario"))
    except ValueError as e:
        raise ScenarioParseError(f"not an ISO-8601 time: {e}", field="epoch") from e

    world_obj = get_obj(obj, "world", "scenario")
    geofences: dict[str, Geofence] = {}

    aps: list[ApSpec] = []
    for i, a in enumerate(get_list(obj, "aps", "scenario")):
        where = f"aps[{i}]"
        serial = get_text(a, "serial", where)
        bandwidths = get_int_list(
            a, "inquiredBandwidthsMhz", where, default=SUPPORTED_BANDWIDTHS_MHZ
        )
        try:
            cfg = ap.ApConfig(
                serial=serial,
                certification_id=(
                    get_text(a, "certificationId", where) if "certificationId" in a else f"CERT-{serial}"
                ),
                height_m=get_num(a, "heightM", where, default=3.0),
                refresh_interval_s=get_num(a, "refreshIntervalS", where, default=86_400.0),
                inquired_bandwidths=bandwidths,
            )
        except ValueError as e:
            raise ScenarioParseError(str(e), field=where) from e
        true_pos = decode_geopoint(get_field(a, "truePosition", where), f"{where}.truePosition")
        deployment = (
            decode_geopoint(a["deploymentRegistration"], f"{where}.deploymentRegistration")
            if "deploymentRegistration" in a
            else true_pos
        )
        fence = (
            decode_geofence(a["geofence"], f"{where}.geofence") if "geofence" in a else None
        )
        if fence is not None:
            geofences[serial] = fence
        aps.append(
            ApSpec(
                config=cfg,
                true_position=true_pos,
                deployment_registration=deployment,
                geofence=fence,
                legit_power_dbm=get_num(a, "legitPowerDbm", where, default=-110.0),
                initial_clock_offset_s=get_num(a, "clockOffsetS", where, default=0.0),
            )
        )

    spoofers: list[SpooferSpec] = []
    for i, s in enumerate(get_list(obj, "spoofers", "scenario")):
        where = f"spoofers[{i}]"
        position = decode_geopoint(get_field(s, "position", where), f"{where}.position")
        window = (0.0, math.inf)
        if "activeWindow" in s:
            w = s["activeWindow"]
            if (
                not isinstance(w, list)
                or len(w) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in w)
            ):
                raise ScenarioParseError("must be [t0, t1]", field=f"{where}.activeWindow")
            try:
                window = (float(w[0]), float(w[1]))
            except OverflowError:  # an integer literal beyond the float range
                raise ScenarioParseError("integer too large for a float", field=f"{where}.activeWindow") from None
        try:
            spoofer = SpooferSpec(
                position=position,
                broadcast_position=decode_geopoint(
                    get_field(s, "broadcastPosition", where), f"{where}.broadcastPosition"
                ),
                tx_power_dbm=get_num(s, "txPowerDbm", where),
                time_offset_s=get_num(s, "timeOffsetS", where, default=0.0),
                active_window=window,
            )
        except ValueError as e:
            raise ScenarioParseError(str(e), field=where) from e
        spoofers.append(spoofer)

    timeline: list[TimelineEvent] = []
    for i, e in enumerate(get_list(obj, "timeline", "scenario")):
        where = f"timeline[{i}]"
        action = get_text(e, "action", where)
        timeline.append(
            TimelineEvent(
                at=get_num(e, "at", where),
                action=action,
                ap_serial=get_text(e, "ap", where) if "ap" in e else None,
                offset_s=get_num(e, "offsetS", where) if "offsetS" in e else None,
            )
        )

    gnss_obj = get_obj(obj, "gnss", "scenario")
    try:
        noise = GnssNoiseModel(
            sigma_m=get_num(gnss_obj, "sigmaM", "gnss", default=5.0),
            ellipse_scale=get_num(gnss_obj, "ellipseScale", "gnss", default=2.0),
        )
    except ValueError as e:
        raise ScenarioParseError(str(e), field="gnss") from e
    capture_margin = get_num(gnss_obj, "captureMarginDb", "gnss", default=DEFAULT_CAPTURE_MARGIN_DB)

    detection_obj = get_obj(obj, "detection", "scenario")
    group_threshold = get_num(
        detection_obj, "groupThresholdM", "detection", default=DEFAULT_GROUP_THRESHOLD_M
    )

    policy = decode_policy(get_obj(world_obj, "policy", "world"))
    if geofences:
        merged = dict(policy.geofence_registry)
        merged.update(geofences)
        policy = replace(policy, geofence_registry=merged)

    world = World(
        database=decode_database(get_obj(world_obj, "database", "world")),
        policy=policy,
        propagation=decode_propagation(get_obj(world_obj, "propagation", "world")),
        protection=decode_protection(get_obj(world_obj, "protection", "world")),
    )

    scenario = Scenario(
        name=get_text(obj, "name", "scenario") if "name" in obj else name,
        seed=seed_v,
        epoch_s=epoch_s,
        world=world,
        gnss_noise=noise,
        capture_margin_db=capture_margin,
        group_threshold_m=group_threshold,
        aps=tuple(aps),
        spoofers=tuple(spoofers),
        timeline=tuple(timeline),
    )
    _validate(scenario)
    return scenario
