"""Seeded random world generation for property and statistical tests.

Worlds are drawn inside the contiguous United States so generated
requests pass coverage checks. Benign variants keep every AP at least
5 km from every FS receiver and re-draw link azimuths that would put an
AP within one degree of a beam edge, so boresight flips cannot occur
from fix noise alone.
"""

import dataclasses
import math
import random

from afcsim.channels import FrequencyRange
from afcsim.geo import EARTH_RADIUS_M, GeoPoint, destination_point, initial_bearing_deg
from afcsim.propagation import FsLink, PropagationConfig, ProtectionConfig
from afcsim.server import INDEX_MIN_ROWS, IncumbentDatabase

LAT_RANGE = (30.0, 45.0)
LON_RANGE = (-115.0, -75.0)


def _point_near(rng: random.Random, center: GeoPoint, max_km: float) -> GeoPoint:
    bearing = rng.uniform(0.0, 360.0)
    dist = rng.uniform(0.0, max_km * 1000.0)
    p = destination_point(center, bearing, dist)
    return GeoPoint(p.lat_deg, p.lon_deg)


def random_world(seed, n_links_max: int = 5, n_aps_max: int = 3, benign: bool = False):
    """Return (database, propagation, protection, ap_positions)."""
    rng = random.Random(f"worldgen:{seed}")
    center = GeoPoint(rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE))

    aps = [
        _point_near(rng, center, max_km=25.0)
        for _ in range(rng.randint(1, n_aps_max))
    ]

    links = []
    for i in range(rng.randint(1, n_links_max)):
        while True:
            rx = _point_near(rng, center, max_km=25.0)
            if not benign or all(_far_enough(rx, ap) for ap in aps):
                break
        low = rng.uniform(5925.0, 7085.0)
        width = rng.uniform(10.0, 40.0)
        azimuth = rng.uniform(0.0, 360.0)
        beamwidth = rng.uniform(3.0, 10.0)
        if benign:
            azimuth = _guarded_azimuth(rng, rx, aps, beamwidth)
        links.append(
            FsLink(
                id=f"FS-{seed}-{i}",
                rx_location=GeoPoint(rx.lat_deg, rx.lon_deg, height_m=rng.uniform(10, 60)),
                freq_range=FrequencyRange(low, min(low + width, 7125.0)),
                bandwidth_mhz=rng.uniform(10.0, 40.0),
                noise_figure_db=rng.uniform(3.0, 7.0),
                max_gain_dbi=rng.uniform(25.0, 40.0),
                azimuth_deg=azimuth,
                beamwidth_deg=beamwidth,
                discrimination_db=rng.uniform(20.0, 30.0),
            )
        )

    pcfg = PropagationConfig(
        regime_threshold_m=rng.choice([500.0, 1000.0, 5000.0]),
        clutter_offset_db=rng.uniform(10.0, 25.0),
    )
    return IncumbentDatabase(fs_links=tuple(links)), pcfg, ProtectionConfig(), aps


def padded(db: IncumbentDatabase, away_from: GeoPoint) -> IncumbentDatabase:
    """db with far links appended up to INDEX_MIN_ROWS compiled rows, so that
    compute_availability prunes it through its keep-out cells instead of
    walking it whole; a db that large already is returned as it is.

    The added receivers stand 0.9 pi R (about 18,000 km) due north of
    away_from, on the 20 MHz channels at 5950-5970 MHz, with 0 dBi of gain
    and a 7 dB noise figure over 40 MHz. Under the default configs their
    keep-out radius is 18 km, and it reaches 18,000 km only at an I/N limit
    60 dB lower (or a ceiling 60 dB higher), so no walk toward a point near
    away_from keeps them under the configs the tests use, and the padded
    world grants what db grants there. The tests that pad assert it.
    """
    far = destination_point(away_from, 0.0, 0.9 * math.pi * EARTH_RADIUS_M)
    links = tuple(
        FsLink(
            id=f"FAR-{i}",
            rx_location=GeoPoint(far.lat_deg, far.lon_deg, 30.0),
            freq_range=FrequencyRange(5950.0, 5970.0),
            bandwidth_mhz=40.0,
            noise_figure_db=7.0,
            max_gain_dbi=0.0,
            azimuth_deg=0.0,
            beamwidth_deg=5.0,
            discrimination_db=20.0,
        )
        for i in range(INDEX_MIN_ROWS - len(db.link_rows))
    )
    return dataclasses.replace(db, fs_links=db.fs_links + links) if links else db


def wide_protection(rng: random.Random) -> ProtectionConfig:
    """Ceilings from well below the 36 dBm grant limit up to it, with useful
    minima from just to far under them, so links bind, sit at the ceiling or
    withhold in turn."""
    ceiling = rng.uniform(-20.0, 36.0)
    return ProtectionConfig(rng.uniform(-12.0, 0.0), ceiling, ceiling - rng.choice([0.001, 5.0, 80.0]))


def _far_enough(rx: GeoPoint, ap: GeoPoint, min_m: float = 5000.0) -> bool:
    from afcsim.geo import haversine_distance

    return haversine_distance(rx, ap) >= min_m


def _guarded_azimuth(
    rng: random.Random, rx: GeoPoint, aps, beamwidth: float, guard_deg: float = 1.0
) -> float:
    """Draw an azimuth whose beam edges stay a guard angle away from every AP."""
    for _ in range(200):
        azimuth = rng.uniform(0.0, 360.0)
        ok = True
        for ap in aps:
            bearing = initial_bearing_deg(rx, ap)
            off = abs((bearing - azimuth + 180.0) % 360.0 - 180.0)
            if abs(off - beamwidth / 2.0) < guard_deg:
                ok = False
                break
        if ok:
            return azimuth
    return 0.0
