"""Great-circle geometry against independently computed values."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from afcsim.errors import CoincidentPoints
from afcsim.geo import (
    EARTH_RADIUS_M,
    Geofence,
    GeoPoint,
    LocationEllipse,
    centroid_rotation,
    destination_point,
    haversine_distance,
    initial_bearing_deg,
    within_geofence,
)

# Spherical-law values computed by hand from R = 6371 km:
# one degree of longitude along the equator subtends R*pi/180.
ONE_DEGREE_EQUATOR_M = 6_371_000.0 * math.pi / 180.0


def test_equator_degree_matches_arc_length():
    d = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
    assert d == pytest.approx(ONE_DEGREE_EQUATOR_M, abs=1e-6)
    assert d == pytest.approx(111_194.92664455874, abs=1e-6)


def test_meridian_quarter_circle():
    d = haversine_distance(GeoPoint(0.0, 10.0), GeoPoint(90.0, 10.0))
    assert d == pytest.approx(6_371_000.0 * math.pi / 2.0, rel=1e-12)


def test_small_offset_pair():
    # A ~10 m fix wobble: both coordinates and the expected distance were
    # computed independently with a spherical geodesic calculator.
    a = GeoPoint(30.086965, -101.103761)
    b = GeoPoint(30.087050, -101.103714)
    assert haversine_distance(a, b) == pytest.approx(10.478, abs=0.005)


def test_bearing_cardinal_directions():
    origin = GeoPoint(0.0, 0.0)
    assert initial_bearing_deg(origin, GeoPoint(1.0, 0.0)) == pytest.approx(0.0, abs=1e-9)
    assert initial_bearing_deg(origin, GeoPoint(0.0, 1.0)) == pytest.approx(90.0, abs=1e-9)
    assert initial_bearing_deg(origin, GeoPoint(-1.0, 0.0)) == pytest.approx(180.0, abs=1e-9)
    assert initial_bearing_deg(origin, GeoPoint(0.0, -1.0)) == pytest.approx(270.0, abs=1e-9)


def test_bearing_diagonal():
    b = initial_bearing_deg(GeoPoint(10.0, 10.0), GeoPoint(10.5, 10.5))
    assert b == pytest.approx(44.494918, abs=1e-4)


def test_bearing_coincident_raises():
    p = GeoPoint(12.0, -7.0)
    with pytest.raises(CoincidentPoints):
        initial_bearing_deg(p, GeoPoint(12.0, -7.0))


def test_destination_zero_distance_is_origin():
    p = GeoPoint(40.0, -77.0, height_m=5.0)
    q = destination_point(p, 123.0, 0.0)
    assert (q.lat_deg, q.lon_deg) == pytest.approx((p.lat_deg, p.lon_deg))
    assert q.height_m == p.height_m


def test_destination_negative_distance_rejected():
    with pytest.raises(ValueError):
        destination_point(GeoPoint(0.0, 0.0), 0.0, -1.0)


def test_destination_normalizes_across_antimeridian():
    q = destination_point(GeoPoint(0.0, 179.9), 90.0, 50_000.0)
    assert -180.0 <= q.lon_deg <= 180.0
    assert q.lon_deg < -179.5


@given(
    lat=st.floats(-60.0, 60.0),
    lon=st.floats(-179.0, 179.0),
    bearing=st.floats(0.0, 359.999),
    dist=st.floats(10.0, 100_000.0),
)
def test_destination_round_trip(lat, lon, bearing, dist):
    start = GeoPoint(lat, lon)
    end = destination_point(start, bearing, dist)
    assert haversine_distance(start, end) == pytest.approx(dist, rel=1e-9, abs=1e-6)
    back = initial_bearing_deg(start, end)
    delta = abs((back - bearing + 180.0) % 360.0 - 180.0)
    assert delta < 1e-3


@given(
    lat1=st.floats(-89.0, 89.0),
    lon1=st.floats(-180.0, 180.0),
    lat2=st.floats(-89.0, 89.0),
    lon2=st.floats(-180.0, 180.0),
)
def test_haversine_symmetric_nonnegative(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d_ab = haversine_distance(a, b)
    d_ba = haversine_distance(b, a)
    assert d_ab >= 0.0
    assert d_ab == pytest.approx(d_ba, rel=1e-12, abs=1e-9)
    assert haversine_distance(a, a) == 0.0


POINTS = st.builds(
    GeoPoint,
    st.floats(-90.0, 90.0) | st.sampled_from([-90.0, -89.9999, 0.0, 89.9999, 90.0]),
    st.floats(-180.0, 180.0) | st.sampled_from([-180.0, -179.9999, 0.0, 179.9999, 180.0]),
)


# Exact antipodes at which h rounds above 1: sqrt(1.0 - h) raised before the clamp.
ANTIPODE = (GeoPoint(-24.89234174456081, -154.11349448595666), GeoPoint(24.89234174456081, 25.886505514043336))


def test_haversine_at_the_antipode_is_pi_r():
    a, b = ANTIPODE
    half_turn = 2.0 * EARTH_RADIUS_M * math.atan2(1.0, 0.0)
    assert haversine_distance(a, b) == half_turn
    assert haversine_distance(b, a) == half_turn


def unit(p):
    lat, lon = math.radians(p.lat_deg), math.radians(p.lon_deg)
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def direction(points):
    s = [sum(c) for c in zip(*map(unit, points))]
    norm = math.hypot(*s)
    return [c / norm for c in s] if norm > 1e-9 else None


@settings(max_examples=300, derandomize=True)
@given(st.lists(POINTS, min_size=1, max_size=12), st.lists(POINTS, min_size=1, max_size=12))
def test_centroid_rotation_turns_the_centroid_onto_the_target_and_keeps_distances(points, target):
    # Across the antimeridian, at the poles, and for repeated points.
    turn = centroid_rotation(points, target)
    turned = [turn(p) for p in points]
    assert [p.height_m for p in turned] == [p.height_m for p in points]
    for (a, b), (ta, tb) in zip(combinations(points, 2), combinations(turned, 2)):
        assert math.dist(unit(ta), unit(tb)) == pytest.approx(math.dist(unit(a), unit(b)), abs=1e-13)
    a, b = direction(points), direction(target)
    if a is not None and b is not None and sum(x * y for x, y in zip(a, b)) > 1e-9:
        assert direction(turned) == pytest.approx(b, abs=1e-9)


def test_centroid_rotation_leaves_a_group_that_did_not_move():
    points = [GeoPoint(40.79, -77.86), GeoPoint(40.80, -77.87, 3.0)]
    turn = centroid_rotation(points, points)
    for p in points:
        assert haversine_distance(turn(p), p) < 1e-6


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(90.5, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 180.5)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 0.0, height_m=-1.0)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)


def test_ellipse_validation():
    c = GeoPoint(40.0, -77.0)
    LocationEllipse(c, 10.0, 5.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        LocationEllipse(c, 5.0, 10.0, 0.0, 0.0)  # minor exceeds major
    with pytest.raises(ValueError):
        LocationEllipse(c, 10.0, 5.0, 180.0, 0.0)  # orientation is mod 180
    with pytest.raises(ValueError):
        LocationEllipse(c, -1.0, -2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        LocationEllipse(c, 10.0, 5.0, 0.0, float("inf"))
    for axis in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            LocationEllipse(c, axis, 5.0, 0.0, 0.0)


def test_geofence_boundary_is_inside():
    center = GeoPoint(40.0, -77.0)
    edge = destination_point(center, 45.0, 250.0)
    fence = Geofence(center, haversine_distance(center, edge))
    assert within_geofence(edge, fence)
    outside = destination_point(center, 45.0, 250.001)
    assert not within_geofence(outside, fence)
    with pytest.raises(ValueError):
        Geofence(center, 0.0)
