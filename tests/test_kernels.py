"""The scalar numeric kernels of geo and propagation against independent formulas.

Each kernel is checked against a second route to the same quantity: the
great-circle kernels through unit vectors on the sphere, the link-budget
kernels against their written-out definitions. The path-loss and off-axis
kernels checked are the copies in tests/reference_chain.py that the link
walk is held to.
"""

import dataclasses
import math
import random

import pytest

from afcsim.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    destination_point,
    haversine_distance,
    initial_bearing_deg,
)
from afcsim.propagation import PropagationConfig, fspl_db, incumbent_noise_floor_dbm
from tests.reference_chain import clutter_db, off_axis_deg, reference_path_loss_db


def _unit(lat_deg, lon_deg):
    p, l = math.radians(lat_deg), math.radians(lon_deg)
    return (math.cos(p) * math.cos(l), math.cos(p) * math.sin(l), math.sin(p))


def _north_east(lat_deg, lon_deg):
    p, l = math.radians(lat_deg), math.radians(lon_deg)
    north = (-math.sin(p) * math.cos(l), -math.sin(p) * math.sin(l), math.cos(p))
    east = (-math.sin(l), math.cos(l), 0.0)
    return north, east


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _fspl(d_m, f_mhz):
    return 32.45 + 20.0 * math.log10(d_m / 1000.0) + 20.0 * math.log10(f_mhz)


@pytest.mark.parametrize("seed", range(5))
def test_haversine_paths_agree(seed):
    rng = random.Random(seed)
    for _ in range(50):
        a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        chord = math.dist(_unit(a.lat_deg, a.lon_deg), _unit(b.lat_deg, b.lon_deg))
        want = 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, chord / 2.0))
        assert haversine_distance(a, b) == pytest.approx(want, rel=1e-9, abs=1e-6)


def test_bearing_matches_tangent_plane_formula():
    rng = random.Random(17)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
        north, east = _north_east(a.lat_deg, a.lon_deg)
        v = _unit(b.lat_deg, b.lon_deg)
        want = math.degrees(math.atan2(_dot(v, east), _dot(v, north))) % 360.0
        got = initial_bearing_deg(a, b)
        assert 0.0 <= got < 360.0
        assert abs((got - want + 180.0) % 360.0 - 180.0) < 1e-9


def test_destination_paths_agree():
    rng = random.Random(13)
    for _ in range(100):
        origin = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
        bearing, dist = rng.uniform(0, 360), rng.uniform(0, 2e5)
        north, east = _north_east(origin.lat_deg, origin.lon_deg)
        u = _unit(origin.lat_deg, origin.lon_deg)
        delta, theta = dist / EARTH_RADIUS_M, math.radians(bearing)
        x, y, z = (
            math.cos(delta) * ui + math.sin(delta) * (math.cos(theta) * ni + math.sin(theta) * ei)
            for ui, ni, ei in zip(u, north, east)
        )
        got = destination_point(origin, bearing, dist)
        assert got.lat_deg == pytest.approx(math.degrees(math.asin(z)), abs=1e-9)
        assert got.lon_deg == pytest.approx(math.degrees(math.atan2(y, x)), abs=1e-9)


def test_fspl_paths_agree():
    rng = random.Random(7)
    cfg = PropagationConfig(regime_threshold_m=1000.0, clutter_offset_db=20.0)
    for _ in range(100):
        d = rng.uniform(1.0, 1e6)
        f = rng.uniform(1000.0, 7125.0)
        assert fspl_db(d, f) == pytest.approx(_fspl(d, f), rel=1e-13)
        clutter = 20.0 if d >= 1000.0 else 0.0
        assert clutter_db(d, cfg) == clutter
        assert reference_path_loss_db(d, f, cfg) == pytest.approx(_fspl(d, f) + clutter, rel=1e-13)


def test_misc_scalar_paths_agree(fs_link):
    rng = random.Random(11)
    for _ in range(100):
        bw, nf = rng.uniform(1, 400), rng.uniform(0, 10)
        link = dataclasses.replace(fs_link, bandwidth_mhz=bw, noise_figure_db=nf)
        want = -174.0 + 10.0 * math.log10(bw) + 60.0 + nf
        assert incumbent_noise_floor_dbm(link) == pytest.approx(want, rel=1e-13)
        b, a = rng.uniform(0, 360), rng.uniform(0, 360)
        want = min(abs(b - a), 360.0 - abs(b - a))
        assert off_axis_deg(b, a) == pytest.approx(want, abs=1e-12)
        assert 0.0 <= off_axis_deg(b, a) <= 180.0
