"""Request validation order, availability math, and engine comparison."""

import dataclasses
import math

import pytest

from afcsim.channels import ChannelId, FrequencyRange, channel_span, overlaps, us_standard_power_channels
from afcsim.geo import Geofence, GeoPoint, LocationEllipse, destination_point
from afcsim.propagation import PropagationConfig, max_permissible_eirp_dbm
from afcsim.server import (
    CONUS,
    ChannelGrant,
    CoverageBox,
    ExclusionZone,
    IncumbentDatabase,
    ResponseCode,
    ServerPolicy,
    SpectrumInquiryRequest,
    SpectrumInquiryResponse,
    World,
    compute_availability,
    differential_compare,
    handle_inquiry,
    quantize_grant_dbm,
    validate_request,
)
from tests.conftest import AP_TRUE

NOW = 1_750_000_000.0


def ellipse(center=AP_TRUE, major=0.0, gps_time=NOW):
    return LocationEllipse(center, major, 0.0, 0.0, gps_time)


def request(
    loc=None,
    request_id="REQ-1",
    serial="AP-1",
    bandwidths=(20, 40, 80, 160, 320),
    height=3.0,
    authenticated=True,
):
    return SpectrumInquiryRequest(
        request_id=request_id,
        device_serial=serial,
        certification_id="CERT-AP-1",
        location=loc if loc is not None else ellipse(),
        height_m=height,
        inquired_bandwidths=tuple(bandwidths),
        transport_authenticated=authenticated,
    )


# --- validation ---------------------------------------------------------


def test_valid_request_passes(policy):
    assert validate_request(request(), NOW, policy) is None


def test_timestamp_tolerance_is_inclusive(policy):
    assert validate_request(request(loc=ellipse(gps_time=NOW - 60.0)), NOW, policy) is None
    assert validate_request(request(loc=ellipse(gps_time=NOW + 60.0)), NOW, policy) is None
    for skew in (60.001, -60.001):
        got = validate_request(request(loc=ellipse(gps_time=NOW + skew)), NOW, policy)
        assert got is ResponseCode.STALE_TIMESTAMP


def test_day_old_timestamp_is_stale(policy):
    got = validate_request(request(loc=ellipse(gps_time=NOW - 41_764.0)), NOW, policy)
    assert got is ResponseCode.STALE_TIMESTAMP


def test_foreign_location_outside_coverage(policy):
    china = ellipse(center=GeoPoint(30.0, 120.0))
    assert validate_request(request(loc=china), NOW, policy) is ResponseCode.OUTSIDE_COVERAGE


def test_coverage_box_edges_inclusive():
    assert CONUS.contains(GeoPoint(24.5, -100.0))
    assert CONUS.contains(GeoPoint(49.5, -66.9))
    assert not CONUS.contains(GeoPoint(24.499, -100.0))
    with pytest.raises(ValueError):
        CoverageBox(10.0, 5.0, 0.0, 1.0)


def test_unauthenticated_transport_disallowed(policy):
    got = validate_request(request(authenticated=False), NOW, policy)
    assert got is ResponseCode.DEVICE_DISALLOWED


def test_registered_geofence_enforced(policy):
    fence = Geofence(AP_TRUE, 100.0)
    fenced = dataclasses.replace(policy, geofence_registry={"AP-1": fence})
    inside = ellipse(center=destination_point(AP_TRUE, 10.0, 50.0))
    assert validate_request(request(loc=inside), NOW, fenced) is None
    outside = ellipse(center=GeoPoint(30.086965, -101.103761))
    got = validate_request(request(loc=outside), NOW, fenced)
    assert got is ResponseCode.DEVICE_DISALLOWED
    # Fences bind by serial: the same report from an unfenced device passes.
    assert validate_request(request(loc=outside, serial="AP-2"), NOW, fenced) is None


def test_malformed_fields_rejected(policy):
    assert validate_request(request(request_id=""), NOW, policy) is ResponseCode.INVALID_REQUEST
    assert validate_request(request(serial=""), NOW, policy) is ResponseCode.INVALID_REQUEST
    assert validate_request(request(bandwidths=()), NOW, policy) is ResponseCode.INVALID_REQUEST
    assert validate_request(request(bandwidths=(20, 30)), NOW, policy) is ResponseCode.INVALID_REQUEST
    assert validate_request(request(height=-1.0), NOW, policy) is ResponseCode.INVALID_REQUEST
    assert validate_request(request(height=math.nan), NOW, policy) is ResponseCode.INVALID_REQUEST


def test_rejection_precedence(policy):
    # Staleness outranks everything, then authorization, then coverage,
    # then field validity.
    stale_foreign = request(
        loc=ellipse(center=GeoPoint(30.0, 120.0), gps_time=NOW - 9999.0),
        authenticated=False,
        request_id="",
    )
    assert validate_request(stale_foreign, NOW, policy) is ResponseCode.STALE_TIMESTAMP
    unauth_foreign = request(
        loc=ellipse(center=GeoPoint(30.0, 120.0)), authenticated=False, request_id=""
    )
    assert validate_request(unauth_foreign, NOW, policy) is ResponseCode.DEVICE_DISALLOWED
    foreign_malformed = request(loc=ellipse(center=GeoPoint(30.0, 120.0)), request_id="")
    assert validate_request(foreign_malformed, NOW, policy) is ResponseCode.OUTSIDE_COVERAGE


# --- grants -------------------------------------------------------------


def test_quantization_floors_to_wire_grid():
    assert quantize_grant_dbm(21.016083705337167) == 21.01
    assert quantize_grant_dbm(36.0) == 36.0
    assert quantize_grant_dbm(20.999) == 20.99
    assert quantize_grant_dbm(21.0 - 1e-13) == 21.0  # representation slack
    assert quantize_grant_dbm(-3.456) == -3.46  # negative values floor too
    assert quantize_grant_dbm(30.059999) == 30.05


def test_grant_ceiling_enforced():
    ChannelGrant(ChannelId(20, 1), 36.0)
    with pytest.raises(ValueError):
        ChannelGrant(ChannelId(20, 1), 36.01)


def test_availability_unconstrained_location_grants_everything(database, propagation, protection):
    remote = ellipse(center=GeoPoint(30.086965, -101.103761))
    grants = compute_availability(remote, (20, 40, 80, 160, 320), database, propagation, protection)
    assert len(grants) == 76
    assert all(g.max_eirp_dbm == 36.0 for g in grants)


def test_availability_constrained_channel_value(database, propagation, protection):
    grants = compute_availability(ellipse(), (20,), database, propagation, protection)
    by_cfi = {g.channel.cfi: g.max_eirp_dbm for g in grants}
    assert by_cfi[9] == 21.01  # the one co-channel cfi, floored on the grid
    assert by_cfi[1] == 36.0
    assert len(by_cfi) == 41


def test_availability_contraction_shrinks_distance(database, propagation, protection):
    # A 120 m major axis pulls the effective distance under the point at
    # which the co-channel cfi stays useful, so it disappears entirely.
    grants = compute_availability(
        ellipse(major=120.0), (20,), database, propagation, protection
    )
    by_cfi = {g.channel.cfi: g.max_eirp_dbm for g in grants}
    assert 9 not in by_cfi
    assert len(by_cfi) == 40


def test_availability_ordering(database, propagation, protection):
    remote = ellipse(center=GeoPoint(30.086965, -101.103761))
    grants = compute_availability(remote, (320, 20, 160, 40, 80), database, propagation, protection)
    keys = [(g.channel.bandwidth_mhz, g.channel.cfi, g.channel.variant or 0) for g in grants]
    assert keys == sorted(keys)


BAN = FrequencyRange(6650.0, 6675.2)


def exclusion_db():
    zone = Geofence(GeoPoint(38.433, -79.8397), 10_000.0)
    return IncumbentDatabase(exclusion_zones=(ExclusionZone(zone=zone, banned=BAN),))


def test_exclusion_zone_drops_overlapping_channels(propagation, protection):
    inside = ellipse(center=GeoPoint(38.433, -79.8397))
    grants = compute_availability(inside, (20, 40, 80, 160, 320), exclusion_db(), propagation, protection)
    granted = {g.channel for g in grants}
    for ch in us_standard_power_channels(20):
        assert (ch in granted) == (not overlaps(channel_span(ch), BAN))
    cfis20 = {c.cfi for c in granted if c.bandwidth_mhz == 20}
    assert {137, 149} <= cfis20 and not {141, 145} & cfis20
    cfis40 = {c.cfi for c in granted if c.bandwidth_mhz == 40}
    assert not {137, 145} & cfis40
    assert len(grants) == 76 - 7


def test_exclusion_zone_inert_outside(propagation, protection):
    outside = ellipse(center=destination_point(GeoPoint(38.433, -79.8397), 0.0, 20_000.0))
    grants = compute_availability(outside, (20, 40, 80, 160, 320), exclusion_db(), propagation, protection)
    assert len(grants) == 76


# --- full handling ------------------------------------------------------


def test_handle_inquiry_success_carries_lifetime(database, policy, propagation, protection):
    resp = handle_inquiry(request(), NOW, database, policy, propagation, protection)
    assert resp.response_code is ResponseCode.SUCCESS
    assert resp.country_code == "US"
    assert resp.issue_time == NOW
    assert resp.expire_time == NOW + 86_400.0
    assert len(resp.grants) == 76


def test_handle_inquiry_rejection_is_bare(database, policy, propagation, protection):
    req = request(loc=ellipse(center=GeoPoint(30.0, 120.0)))
    resp = handle_inquiry(req, NOW, database, policy, propagation, protection)
    assert resp.response_code is ResponseCode.OUTSIDE_COVERAGE
    assert resp.grants == ()
    assert resp.country_code is None and resp.expire_time is None


def test_response_shape_invariants():
    with pytest.raises(ValueError):
        SpectrumInquiryResponse("r", ResponseCode.SUCCESS)  # times required
    with pytest.raises(ValueError):
        SpectrumInquiryResponse(
            "r",
            ResponseCode.OUTSIDE_COVERAGE,
            grants=(ChannelGrant(ChannelId(20, 1), 30.0),),
        )


# --- differential comparison --------------------------------------------


def engine(database, threshold_m, clutter_db):
    return World(database, propagation=PropagationConfig(regime_threshold_m=threshold_m, clutter_offset_db=clutter_db))


def test_engine_self_comparison_is_empty(database):
    reqs = [request(request_id=f"R{i}") for i in range(10)]
    e = engine(database, 1000.0, 20.0)
    assert differential_compare(reqs, e, e).empty


def test_clutter_disagreement_is_reported(database):
    e_clutter = engine(database, 1000.0, 20.0)
    e_free = engine(database, 1e9, 0.0)
    report = differential_compare([request(bandwidths=(20,))], e_clutter, e_free)
    rows = {r.channel.cfi: r for r in report.rows}
    # The co-channel cfi: clutter lifts path loss by 20 dB at 10 km, so
    # one engine caps at 36 while the other grants 21.01.
    assert rows[9].eirp_a_dbm == 36.0
    assert rows[9].eirp_b_dbm == 21.01
    assert rows[9].delta_db == pytest.approx(14.99, abs=1e-9)
    # Unconstrained channels agree at 36.0 and stay out of the report.
    assert 1 not in rows


def test_one_sided_grant_is_reported(database):
    # Close enough that the free-space engine withholds the co-channel
    # cfi while the clutter engine still caps at 36.
    loc = ellipse(center=destination_point(AP_TRUE, 0.0, 5000.0))
    e_clutter = engine(database, 1000.0, 20.0)
    e_free = engine(database, 1e9, 0.0)
    report = differential_compare([request(loc=loc, bandwidths=(20,))], e_clutter, e_free)
    rows = {r.channel.cfi: r for r in report.rows}
    assert rows[9].eirp_b_dbm is None
    assert rows[9].eirp_a_dbm is not None
    assert rows[9].delta_db is None


def test_tolerance_suppresses_small_deltas(database):
    e_a = engine(database, 1000.0, 10.0)
    e_b = engine(database, 1000.0, 10.05)
    report = differential_compare([request(bandwidths=(20,))], e_a, e_b, tolerance_db=0.1)
    assert report.empty
    tight = differential_compare([request(bandwidths=(20,))], e_a, e_b, tolerance_db=0.001)
    assert not tight.empty
