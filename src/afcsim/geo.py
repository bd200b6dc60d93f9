"""Geodesic primitives on a spherical Earth.

Distances, bearings, destination points, and circular geofence membership.
A sphere of radius 6,371,000 m is used throughout; at the sub-hundred-km
scales of spectrum coordination the difference from an ellipsoid is orders
of magnitude below protection-decision granularity. Swapping in an
ellipsoidal engine would only touch this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import CoincidentPoints

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A latitude/longitude position with height above ground level."""

    lat_deg: float
    lon_deg: float
    height_m: float = 0.0

    def __post_init__(self):
        if not (-90.0 <= self.lat_deg <= 90.0):
            raise ValueError(f"latitude {self.lat_deg} outside [-90, 90]")
        if not (-180.0 <= self.lon_deg <= 180.0):
            raise ValueError(f"longitude {self.lon_deg} outside [-180, 180]")
        if not (math.isfinite(self.height_m) and self.height_m >= 0.0):
            raise ValueError(f"height {self.height_m} must be finite and >= 0")


@dataclass(frozen=True)
class LocationEllipse:
    """A position estimate with its uncertainty ellipse and GPS time.

    orientation_deg is the major-axis bearing, clockwise from true north,
    in [0, 180). gps_time is UTC seconds since the epoch as reported by
    the receiver (not necessarily the true time).
    """

    center: GeoPoint
    major_axis_m: float
    minor_axis_m: float
    orientation_deg: float
    gps_time: float

    def __post_init__(self):
        if not (math.isfinite(self.major_axis_m) and math.isfinite(self.minor_axis_m)):
            raise ValueError("ellipse axes must be finite")
        if self.major_axis_m < 0.0 or self.minor_axis_m < 0.0:
            raise ValueError("ellipse axes must be >= 0")
        if self.minor_axis_m > self.major_axis_m:
            raise ValueError("minor axis exceeds major axis")
        if not (0.0 <= self.orientation_deg < 180.0):
            raise ValueError(f"orientation {self.orientation_deg} outside [0, 180)")
        if not math.isfinite(self.gps_time):
            raise ValueError("gps_time must be finite")


@dataclass(frozen=True)
class Geofence:
    """A circular region; membership is boundary-inclusive."""

    center: GeoPoint
    radius_m: float

    def __post_init__(self):
        if not (math.isfinite(self.radius_m) and self.radius_m > 0.0):
            raise ValueError("geofence radius must be > 0")


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters."""
    p1 = math.radians(a.lat_deg)
    p2 = math.radians(b.lat_deg)
    dp = math.radians(b.lat_deg - a.lat_deg)
    dl = math.radians(b.lon_deg - a.lon_deg)
    h = math.sin(dp * 0.5) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl * 0.5) ** 2
    if h > 1.0:  # near antipodes h rounds above 1, and sqrt(1.0 - h) is undefined
        h = 1.0
    return 2.0 * EARTH_RADIUS_M * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def _unit_vector(p: GeoPoint) -> tuple[float, float, float]:
    lat, lon = math.radians(p.lat_deg), math.radians(p.lon_deg)
    c = math.cos(lat)
    return (c * math.cos(lon), c * math.sin(lon), math.sin(lat))


def centroid_rotation(source: list[GeoPoint], target: list[GeoPoint]) -> Callable[[GeoPoint], GeoPoint]:
    """The rotation that turns the centroid of source onto that of target, as a map of points (heights kept).

    A centroid is the direction a of the sum of the points' 3-D unit vectors.
    The rotation about a x b that turns a onto b is x -> c x + v x x +
    v (v.x) / (1 + c), with v = a x b and c = a.b (Rodrigues). Rounding leaves
    it within a few ulps of an exact rotation while 1 + c >= 1, so each
    point it maps lies within about 100 roundings (under 1e-6 m) of one
    rotation of that point. The map is the identity when either centroid sum
    vanishes or the centroids are a quarter turn or more apart.
    """
    centroids = []
    for group in (source, target):
        x = y = z = 0.0
        for p in group:
            ux, uy, uz = _unit_vector(p)
            x, y, z = x + ux, y + uy, z + uz
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            return lambda p: p
        centroids.append((x / norm, y / norm, z / norm))
    (ax, ay, az), (bx, by, bz) = centroids
    c = ax * bx + ay * by + az * bz
    if c <= 0.0:
        return lambda p: p
    vx, vy, vz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx

    def turn(p: GeoPoint) -> GeoPoint:
        x, y, z = _unit_vector(p)
        s = (vx * x + vy * y + vz * z) / (1.0 + c)
        x, y, z = (
            c * x + (vy * z - vz * y) + s * vx,
            c * y + (vz * x - vx * z) + s * vy,
            c * z + (vx * y - vy * x) + s * vz,
        )
        return GeoPoint(math.degrees(math.atan2(z, math.hypot(x, y))), math.degrees(math.atan2(y, x)), p.height_m)

    return turn


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial great-circle bearing from a to b, clockwise from north, [0, 360)."""
    if a.lat_deg == b.lat_deg and a.lon_deg == b.lon_deg:
        raise CoincidentPoints("bearing undefined for coincident points")
    p1 = math.radians(a.lat_deg)
    p2 = math.radians(b.lat_deg)
    dl = math.radians(b.lon_deg - a.lon_deg)
    x = math.sin(dl) * math.cos(p2)
    y = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    return (math.degrees(math.atan2(x, y)) + 360.0) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached by travelling distance_m from origin along bearing_deg.

    Height is carried over from the origin unchanged; longitude is
    normalized into [-180, 180).
    """
    if distance_m < 0.0:
        raise ValueError("distance must be >= 0")
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    p1 = math.radians(origin.lat_deg)
    l1 = math.radians(origin.lon_deg)
    sp2 = math.sin(p1) * math.cos(delta) + math.cos(p1) * math.sin(delta) * math.cos(theta)
    if sp2 > 1.0:
        sp2 = 1.0
    elif sp2 < -1.0:
        sp2 = -1.0
    p2 = math.asin(sp2)
    l2 = l1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(p1),
        math.cos(delta) - math.sin(p1) * sp2,
    )
    lon = (math.degrees(l2) + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(p2), lon, origin.height_m)


def within_geofence(p: GeoPoint, fence: Geofence) -> bool:
    """True iff p lies within the fence (boundary inclusive)."""
    return haversine_distance(p, fence.center) <= fence.radius_m
