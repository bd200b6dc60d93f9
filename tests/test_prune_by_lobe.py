"""The keep-out prune hands walk_links exactly the rows of the scan it replaced.

propagation.rows_within reads its rows from one candidate list per AP cell.
tests/reference_prune.py is the single scan by main-lobe radius that it
replaced. Every check here compares the two on the same rows: the same set,
each row once. One index serves each world's inquiries in turn, at
contractions of 0, 20 and 300 m and 1e6 m, so lists are reused, and built
again when a contraction reaches the smallest key a list left out; the
reference builds its cells afresh.
The worlds are tests/worldgen.py's 500 and the spread worlds of
tests/test_keep_out.py, with APs on integer-degree edges and corners, at
latitude +-90 and longitude +-180, in cells with no rows, beside beams of
half the sky and more, and under a radius beyond half the globe.
"""

import dataclasses
import math
import random

import pytest

from afcsim.geo import GeoPoint
from afcsim.propagation import PropagationConfig, ProtectionConfig, keep_out_cells, rows_within
from afcsim.server import IncumbentDatabase
from tests import reference_prune
from tests.test_keep_out import _link, _world, candidate_lists
from tests.worldgen import random_world, wide_protection

CONTRACTIONS = (0.0, 20.0, 300.0, 1e6)


class Prune:
    """One world's index under one (propagation, protection), and the reference's cells for the same rows."""

    def __init__(self, db, pcfg, prot):
        args = (db.link_rows, pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
        self.index = keep_out_cells(*args)
        self.reference = reference_prune.keep_out_cells(*args)

    def check(self, pos: GeoPoint, contraction_m: float) -> int:
        """Assert that rows_within hands over the reference's rows toward pos, each once; return their count."""
        handed = [row[0] for row in rows_within(self.index, pos, contraction_m)]
        want = [row[0] for row in reference_prune.rows_within(self.reference, pos, contraction_m)]
        assert len(handed) == len(set(handed)), f"a row handed twice at {pos}, contraction {contraction_m}"
        assert sorted(handed) == sorted(want), f"at {pos}, contraction {contraction_m}"
        return len(handed)

    def lists(self) -> dict:
        """Per AP cell (west, south) with a candidate list, (the smallest key it left out, its entries)."""
        return {key: (limit, entries) for key, (limit, _, entries) in candidate_lists(self.index).items()}


def _corners(p: GeoPoint) -> list[GeoPoint]:
    """p moved onto the integer-degree edges and the corner of its cell."""
    lat, lon = float(round(p.lat_deg)), float(round(p.lon_deg))
    return [GeoPoint(lat, p.lon_deg), GeoPoint(p.lat_deg, lon), GeoPoint(lat, lon)]


def _check_all(prune: Prune, positions) -> int:
    handed = 0
    for contraction in CONTRACTIONS:
        for pos in positions:
            handed += prune.check(pos, contraction)
    return handed


def test_worldgen_worlds_at_every_contraction():
    handed = 0
    for seed in range(500):
        db, pcfg, prot, aps = random_world(seed)
        rng = random.Random(f"prune-by-lobe:{seed}")
        receivers = [link.rx_location for link in db.fs_links]
        positions = aps + _corners(aps[0]) + [GeoPoint(rx.lat_deg, rx.lon_deg) for rx in receivers[:1]]
        for config in (prot, wide_protection(rng)):
            handed += _check_all(Prune(db, pcfg, config), positions)
    assert handed > 0


@pytest.mark.parametrize("kind", ["conus", "metro", "antimeridian", "polar"])
def test_spread_worlds_on_edges_and_corners(kind):
    # An AP on an integer-degree edge or corner touches two or four cells, each handed over whole from the
    # candidate list of its cell, though their rows may fail the list's cell-level beam test.
    lists = 0
    for seed in range(8):
        db, pcfg, aps, rng = _world(kind, seed, 80)
        positions = aps + [q for p in aps for q in _corners(p)]
        for prot in (ProtectionConfig(), wide_protection(rng)):
            prune = Prune(db, pcfg, prot)
            _check_all(prune, positions)
            lists += len(prune.lists())
    assert lists > 0


def _around(rng: random.Random, lat: float, lon: float, n: int, spread_deg: float) -> list[GeoPoint]:
    return [
        GeoPoint(
            max(-90.0, min(90.0, lat + rng.uniform(-spread_deg, spread_deg))),
            (lon + rng.uniform(-spread_deg, spread_deg) + 180.0) % 360.0 - 180.0,
        )
        for _ in range(n)
    ]


def _links_at(rng: random.Random, receivers, aps, wide=False) -> IncumbentDatabase:
    """Links at receivers, half of them aimed at one of aps; with wide, beams of 180-360 degrees."""
    links = []
    for i, rx in enumerate(receivers):
        link = _link(rng, i, rx, aps)
        if wide and rng.random() < 0.5:
            link = dataclasses.replace(link, beamwidth_deg=rng.choice([180.0, 181.0, 270.0, 360.0]))
        links.append(link)
    return IncumbentDatabase(fs_links=tuple(links))


@pytest.mark.parametrize("lat", [90.0, -90.0])
def test_an_ap_at_a_pole(lat):
    for seed in range(6):
        rng = random.Random(f"prune-by-lobe-pole:{lat}:{seed}")
        sign = 1.0 if lat > 0 else -1.0
        receivers = [GeoPoint(lat, 0.0)] + [
            GeoPoint(sign * rng.uniform(84.0, 90.0), rng.uniform(-180.0, 180.0)) for _ in range(40)
        ]
        aps = [GeoPoint(lat, rng.uniform(-180.0, 180.0)), GeoPoint(lat, 180.0), GeoPoint(lat, -180.0)]
        aps += [GeoPoint(sign * rng.uniform(86.0, 89.9), rng.uniform(-180.0, 180.0)) for _ in range(2)]
        db = _links_at(rng, receivers, aps)
        for prot in (ProtectionConfig(), wide_protection(rng)):
            _check_all(Prune(db, PropagationConfig(), prot), aps)


@pytest.mark.parametrize("lon", [180.0, -180.0])
def test_an_ap_on_the_antimeridian(lon):
    for seed in range(6):
        rng = random.Random(f"prune-by-lobe-antimeridian:{lon}:{seed}")
        lat = rng.uniform(-60.0, 60.0)
        receivers = [GeoPoint(lat, 180.0), GeoPoint(lat, -180.0)] + _around(rng, lat, 180.0, 40, 3.0)
        aps = [GeoPoint(lat + rng.uniform(-1.0, 1.0), lon), GeoPoint(float(round(lat)), lon)]
        aps += _around(rng, lat, 180.0, 2, 1.0)
        db = _links_at(rng, receivers, aps)
        for prot in (ProtectionConfig(), wide_protection(rng)):
            _check_all(Prune(db, PropagationConfig(), prot), aps)


def _cell(p: GeoPoint) -> tuple[int, int]:
    return math.floor(p.lon_deg), math.floor(p.lat_deg)


def test_an_ap_in_a_cell_with_no_rows():
    # The list of a cell without rows lives in index.lists, not in a cell.
    for seed in range(10):
        rng = random.Random(f"prune-by-lobe-empty:{seed}")
        lat, lon = rng.uniform(28.0, 45.0), rng.uniform(-120.0, -75.0)
        receivers = _around(rng, lat, lon, 60, 4.0)
        occupied = {_cell(rx) for rx in receivers}
        aps = [p for p in _around(rng, lat, lon, 40, 4.0) if _cell(p) not in occupied]
        assert aps
        db = _links_at(rng, receivers, aps[:3])
        prune = Prune(db, PropagationConfig(), wide_protection(rng))
        _check_all(prune, aps[:6])
        assert set(prune.index.lists) == {_cell(p) for p in aps[:6]}


def test_beams_of_half_the_sky_and_more():
    # A half beamwidth of 90 degrees or more has zero beam normals, which keep the row in every list
    # within reach and pass every beam test.
    for seed in range(10):
        rng = random.Random(f"prune-by-lobe-wide:{seed}")
        lat, lon = rng.uniform(28.0, 45.0), rng.uniform(-120.0, -75.0)
        aps = _around(rng, lat, lon, 4, 3.0)
        db = _links_at(rng, _around(rng, lat, lon, 60, 4.0), aps, wide=True)
        assert any(row[11] >= 90.0 for row in db.link_rows)
        for prot in (ProtectionConfig(), wide_protection(rng)):
            _check_all(Prune(db, PropagationConfig(), prot), aps + _corners(aps[0]))


def test_a_radius_beyond_half_the_globe():
    # At an I/N limit of -300 dB every radius spans more than half the globe.
    prot = ProtectionConfig(-300.0, 36.0, 21.0)
    for seed in range(10):
        rng = random.Random(f"prune-by-lobe-globe:{seed}")
        receivers = [GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)) for _ in range(12)]
        aps = [GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)) for _ in range(3)]
        db = _links_at(rng, receivers, aps)
        prune = Prune(db, PropagationConfig(), prot)
        for pos in aps:
            assert prune.check(pos, 0.0) == len(db.link_rows)


def test_a_small_then_a_large_major_axis_in_one_cell():
    # A list serves every contraction below the smallest key it left out: a contraction that reaches that
    # key builds it again, with at least the entries it had, and a smaller one takes a prefix of it.
    rebuilt = 0
    for seed in range(16):
        rng = random.Random(f"prune-by-lobe-grow:{seed}")
        lat, lon = rng.uniform(28.0, 45.0), rng.uniform(-120.0, -75.0)
        south, west = math.floor(lat), math.floor(lon)
        aps = [GeoPoint(rng.uniform(south, south + 1.0), rng.uniform(west, west + 1.0)) for _ in range(3)]
        db = _links_at(rng, _around(rng, lat, lon, 80, 5.0), aps)
        prune = Prune(db, PropagationConfig(), wide_protection(rng))
        before = None
        for pos, contraction in zip(aps * 2, (10.0, 5_000.0, 200_000.0, 0.0, 300.0, 1e6)):
            prune.check(pos, contraction)
            ((limit, length),) = prune.lists().values()
            assert limit > contraction
            if before is not None and contraction >= before[0]:
                rebuilt += 1
                assert length >= before[1]
            elif before is not None:
                assert (limit, length) == before
            before = (limit, length)
    assert rebuilt > 0
