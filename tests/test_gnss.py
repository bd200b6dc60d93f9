"""Receiver capture rule, fix noise, and the reported ellipse's bound."""

import math

import pytest
from hypothesis import given, strategies as st

from afcsim.errors import CoincidentPoints
from afcsim.geo import GeoPoint, haversine_distance, initial_bearing_deg
from afcsim.gnss import (
    GPS_L1_MHZ,
    LEGIT,
    SPOOFER,
    GnssNoiseModel,
    GnssSource,
    compute_fix,
    received_power_dbm,
)

TRUE_POS = GeoPoint(40.7934, -77.86)
SPOOF_POS = GeoPoint(30.086965, -101.103761)


def legit(power=-110.0):
    return GnssSource(kind=LEGIT, broadcast_position=TRUE_POS, received_power_dbm=power)


def spoofer(power, time_offset=0.0, broadcast=SPOOF_POS):
    return GnssSource(
        kind=SPOOFER,
        broadcast_position=broadcast,
        received_power_dbm=power,
        time_offset_s=time_offset,
    )


def test_received_power_free_space():
    tx_pos = GeoPoint(40.7934, -77.858812)  # about 100 m east
    d = haversine_distance(tx_pos, TRUE_POS)
    expect = 10.0 - (
        32.45 + 20.0 * math.log10(d / 1000.0) + 20.0 * math.log10(GPS_L1_MHZ)
    )
    got = received_power_dbm(10.0, tx_pos, TRUE_POS)
    assert got == pytest.approx(expect, abs=1e-9)
    assert got == pytest.approx(-66.40, abs=0.01)


def test_received_power_coincident_rejected():
    with pytest.raises(CoincidentPoints):
        received_power_dbm(10.0, TRUE_POS, TRUE_POS)
    # Distinct longitudes whose haversine distance underflows to 0 m.
    with pytest.raises(CoincidentPoints):
        received_power_dbm(10.0, GeoPoint(40.0, 5e-324), GeoPoint(40.0, 0.0))


def test_legit_source_must_have_zero_offset():
    with pytest.raises(ValueError):
        GnssSource(kind=LEGIT, broadcast_position=TRUE_POS,
                   received_power_dbm=-110.0, time_offset_s=5.0)


def test_capture_needs_full_margin():
    noise = GnssNoiseModel()
    win = compute_fix(TRUE_POS, [legit(), spoofer(-107.0)], 0.0, noise, "s")
    assert win.winning_kind == SPOOFER  # exactly +3 dB captures
    lose = compute_fix(TRUE_POS, [legit(), spoofer(-107.5)], 0.0, noise, "s")
    assert lose.winning_kind == LEGIT  # +2.5 dB does not


def test_zero_margin_still_requires_strictly_more_power():
    noise = GnssNoiseModel()
    tie = compute_fix(
        TRUE_POS, [legit(), spoofer(-110.0)], 0.0, noise, "s", capture_margin_db=0.0
    )
    assert tie.winning_kind == LEGIT
    edge = compute_fix(
        TRUE_POS, [legit(), spoofer(-109.9)], 0.0, noise, "s", capture_margin_db=0.0
    )
    assert edge.winning_kind == SPOOFER


def test_strongest_of_each_side_competes():
    noise = GnssNoiseModel()
    fix = compute_fix(
        TRUE_POS,
        [legit(-120.0), legit(-105.0), spoofer(-104.0), spoofer(-90.0)],
        0.0,
        noise,
        "s",
    )
    assert fix.winning_kind == SPOOFER  # -90 vs -105 clears the margin


def test_the_first_of_equally_strong_sources_wins():
    noise = GnssNoiseModel()
    sources = [legit(-120.0), spoofer(-90.0, 5.0), spoofer(-95.0, 7.0), spoofer(-90.0, 9.0)]
    fix = compute_fix(TRUE_POS, sources, 0.0, noise, "s")
    assert fix.ellipse.gps_time == 5.0


def test_no_sources_means_no_fix():
    assert compute_fix(TRUE_POS, [], 0.0, GnssNoiseModel(), "s") is None


def test_legit_broadcast_must_match_true_position():
    rogue = GnssSource(kind=LEGIT, broadcast_position=SPOOF_POS, received_power_dbm=-110.0)
    with pytest.raises(ValueError):
        compute_fix(TRUE_POS, [rogue], 0.0, GnssNoiseModel(), "s")


def test_fix_is_deterministic_per_seed():
    noise = GnssNoiseModel()
    sources = [legit(), spoofer(-66.4)]
    a = compute_fix(TRUE_POS, sources, 100.0, noise, "42:0:AP-1")
    b = compute_fix(TRUE_POS, sources, 100.0, noise, "42:0:AP-1")
    c = compute_fix(TRUE_POS, sources, 100.0, noise, "42:0:AP-2")
    assert a == b
    assert a != c


def test_spoofed_time_offset_shifts_gps_time():
    fix = compute_fix(
        TRUE_POS, [legit(), spoofer(-66.4, time_offset=-41_764.0)],
        41_764.0, GnssNoiseModel(), "s",
    )
    assert fix.winning_kind == SPOOFER
    assert fix.ellipse.gps_time == 0.0
    honest = compute_fix(TRUE_POS, [legit()], 41_764.0, GnssNoiseModel(), "s")
    assert honest.ellipse.gps_time == 41_764.0


@given(trial=st.integers(0, 300))
def test_major_axis_bounds_position_error(trial):
    # With scale 2 >= sqrt(2) the reported major axis must always cover
    # the true offset between the fix center and the captured position.
    noise = GnssNoiseModel(sigma_m=5.0, ellipse_scale=2.0)
    fix = compute_fix(TRUE_POS, [legit(), spoofer(-66.4)], 0.0, noise, f"bound:{trial}")
    err = haversine_distance(fix.ellipse.center, SPOOF_POS)
    assert err <= fix.ellipse.major_axis_m + 1e-6
    assert 0.0 <= fix.ellipse.minor_axis_m <= fix.ellipse.major_axis_m
    assert 0.0 <= fix.ellipse.orientation_deg < 180.0


@pytest.mark.parametrize("scale", [2.0, 1.5])
def test_reported_ellipse_holds_an_honest_fix_true_position(scale):
    # In the tangent plane at the fix center: the true position's offset
    # along and across the major axis, against the two semi-axes.
    noise = GnssNoiseModel(sigma_m=5.0, ellipse_scale=scale)
    outside = 0
    for trial in range(5000):
        e = compute_fix(TRUE_POS, [legit()], 0.0, noise, f"ellipse:{trial}").ellipse
        d = haversine_distance(e.center, TRUE_POS)
        angle = math.radians(initial_bearing_deg(e.center, TRUE_POS) - e.orientation_deg)
        along, across = d * math.cos(angle), d * math.sin(angle)
        outside += (along / e.major_axis_m) ** 2 + (across / e.minor_axis_m) ** 2 > 1.0
    assert outside == 0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        GnssNoiseModel(sigma_m=0.0)
    with pytest.raises(ValueError):
        GnssNoiseModel(ellipse_scale=0.0)
