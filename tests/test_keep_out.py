"""The keep-out prune hands walk_links every row that the walk would keep.

From server.INDEX_MIN_ROWS compiled rows on, compute_availability walks
only the rows of the 1 degree cells that propagation.rows_within keeps. A
skipped row must lie beyond its keep-out radius, where walk_links would
drop it anyway, so grants stay equal to the per-pair reference.
tests/worldgen.py worlds lie within 25 km, where the prune rarely fires;
the worlds here spread over CONUS, cluster around metros, straddle the
antimeridian or lie above 80 degrees N. The exactness checks assert that
each row the walk keeps over all of link_rows is among the rows handed to
it, and compare grants with the reference, in worlds padded with far links
(tests/worldgen.py padded) up to the INDEX_MIN_ROWS rows that
compute_availability prunes. A count test checks that the prune does skip
rows. A cell passes only the rows whose radius reaches a bound on its
distance, so links at their radius are also checked beside a larger radius
in the same cell, which sets the cell's reach, and the bound's rounding
margin is checked on its own. A row that passes is handed over only when
its receiver's chord from the AP is within its reach, widened by 1e-9: that
margin is checked with the cell bound far below, and a cell that touches
the pole, whose cell bound keeps only its latitude gap, hands over only
receivers in reach. Past its radius a row is handed over only
when its side-lobe radius reaches the bound or its main beam may hold the
AP; those cases are checked against a walk over all of link_rows with no
prune, in padded worlds whose far links rows_within never hands over: an
AP on the boresight, on each beam edge and 1e-9 rad either side of it, on
the receiver and within 1 m of it, beams of 180 and 360 degrees, rows at
their side-lobe radius and one ulp either side, and receivers on both
sides of the antimeridian.
"""

import dataclasses
import math
import random
from unittest import mock

import pytest

from afcsim import server
from afcsim.channels import FrequencyRange
from afcsim.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    LocationEllipse,
    destination_point,
    haversine_distance,
    initial_bearing_deg,
)
from afcsim.propagation import (
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    _cell_bound,
    constrains,
    keep_out_cells,
    keep_out_radius_m,
    rows_within,
    walk_links,
)
from afcsim.scenario import assess_harm
from afcsim.server import IncumbentDatabase, World, compute_availability
from tests.test_availability import ALL_BANDWIDTHS, _ellipse, reference_availability
from tests.reference_chain import off_axis_deg, reference_i_over_n_db
from tests.test_walk import _raw
from tests.worldgen import padded, random_world, wide_protection

# Every authorized channel, indexed by its position in the compiled rows.
CHANNELS = list(server.CHANNEL_POSITION)


def _link(rng: random.Random, i: int, rx: GeoPoint, aps) -> FsLink:
    # Given APs, half the links look straight at one of them, so main-lobe
    # rows lie at every distance from it, up to and beyond their radius.
    azimuth = rng.uniform(0.0, 360.0)
    target = rng.choice(aps) if aps else rx
    if rng.random() < 0.5 and (target.lat_deg, target.lon_deg) != (rx.lat_deg, rx.lon_deg):
        azimuth = initial_bearing_deg(rx, target)
    low = rng.uniform(5925.0, 7085.0)
    return FsLink(
        id=f"FS-{i}",
        rx_location=GeoPoint(rx.lat_deg, rx.lon_deg, 30.0),
        freq_range=FrequencyRange(low, min(low + rng.uniform(10.0, 40.0), 7125.0)),
        bandwidth_mhz=rng.uniform(10.0, 40.0),
        noise_figure_db=rng.uniform(3.0, 7.0),
        max_gain_dbi=rng.uniform(25.0, 45.0),
        azimuth_deg=azimuth,
        beamwidth_deg=rng.uniform(1.0, 10.0),
        discrimination_db=rng.uniform(20.0, 35.0),
    )


def _near(rng: random.Random, p: GeoPoint, max_m: float) -> GeoPoint:
    q = destination_point(p, rng.uniform(0.0, 360.0), rng.uniform(0.0, max_m))
    return GeoPoint(q.lat_deg, q.lon_deg)


def _lon(x: float) -> float:
    return (x + 180.0) % 360.0 - 180.0


def _points(kind: str, rng: random.Random, n: int) -> list[GeoPoint]:
    """n receiver or AP positions of one kind of world."""
    if kind == "conus":
        return [GeoPoint(rng.uniform(24.5, 49.5), rng.uniform(-125.0, -66.9)) for _ in range(n)]
    if kind == "metro":
        metros = [GeoPoint(rng.uniform(28.0, 47.0), rng.uniform(-122.0, -72.0)) for _ in range(8)]
        return [_near(rng, rng.choice(metros), 60_000.0) for _ in range(n)]
    if kind == "antimeridian":
        lat = rng.uniform(-60.0, 60.0)
        return [
            GeoPoint(lat + rng.uniform(-3.0, 3.0), rng.choice([180.0, -180.0, _lon(180.0 + rng.uniform(-4.0, 4.0))]))
            for _ in range(n)
        ]
    assert kind == "polar"
    return [GeoPoint(rng.choice([90.0, rng.uniform(80.0, 90.0)]), rng.uniform(-180.0, 180.0)) for _ in range(n)]


def _world(kind: str, seed: int, n_links: int):
    rng = random.Random(f"keep-out:{kind}:{seed}")
    receivers = _points(kind, rng, n_links)
    aps = _points(kind, rng, 2) + [_near(rng, rng.choice(receivers), 30_000.0) for _ in range(2)]
    if kind == "polar":
        aps.append(GeoPoint(rng.uniform(76.0, 80.0), rng.uniform(-180.0, 180.0)))
    links = tuple(_link(rng, i, rx, aps) for i, rx in enumerate(receivers))
    pcfg = PropagationConfig(
        regime_threshold_m=rng.choice([500.0, 1000.0, 5000.0, 50_000.0]),
        clutter_offset_db=rng.choice([0.0, rng.uniform(10.0, 25.0)]),
    )
    return IncumbentDatabase(fs_links=links), pcfg, aps, rng


def _handed_and_kept(db, pcfg, prot, loc):
    """The link indices that rows_within hands the walk, and those the walk keeps over all rows."""
    limit, ceiling = prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm
    cells = keep_out_cells(db.link_rows, pcfg, limit, ceiling)
    handed = [row[0] for row in rows_within(cells, loc.center, loc.major_axis_m)]
    kept = {i for i, *_ in walk_links(db.link_rows, loc.center, loc.major_axis_m, pcfg, limit, ceiling)}
    return handed, kept


def _assert_exact(db, pcfg, prot, loc) -> int:
    handed, kept = _handed_and_kept(db, pcfg, prot, loc)
    assert len(handed) == len(set(handed)) and kept <= set(handed)
    # Padded with far links, a small world is pruned rather than walked whole.
    db = padded(db, loc.center)
    assert compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot) == reference_availability(
        loc, ALL_BANDWIDTHS, db, pcfg, prot
    )
    return len(handed)


@pytest.mark.parametrize("kind", ["conus", "metro", "antimeridian", "polar"])
def test_matches_reference_over_spread_geometry(kind):
    handed = walked = 0
    for seed in range(8):
        db, pcfg, aps, rng = _world(kind, seed, 80)
        for pos in aps:
            for prot in (ProtectionConfig(), wide_protection(rng)):
                handed += _assert_exact(db, pcfg, prot, _ellipse(rng, pos))
                walked += len(db.link_rows)
    # The gate is only as strong as the share of rows the prune skips.
    assert handed < 0.6 * walked


REGIONS = {
    "conus": lambda rng: GeoPoint(rng.uniform(25.0, 49.0), rng.uniform(-124.0, -68.0)),
    "antimeridian": lambda rng: GeoPoint(
        rng.uniform(-60.0, 60.0), rng.choice([180.0, _lon(180.0 + rng.uniform(-2.0, 2.0))])
    ),
    "polar": lambda rng: GeoPoint(rng.uniform(80.0, 89.0), rng.uniform(-180.0, 180.0)),
}


def _edge_case(rng: random.Random, region: str, distance_m: float, major_m: float, on_edge: bool):
    """One link aimed at an AP whose contracted distance to it is about distance_m.

    on_edge puts the receiver on the south edge of its cell and the AP due
    south of it, so the cell's lower bound is the receiver's own distance.
    """
    ap = REGIONS[region](rng)
    if on_edge:
        rx = GeoPoint(float(math.ceil(ap.lat_deg)), ap.lon_deg)
        ap = GeoPoint(rx.lat_deg - math.degrees((distance_m + major_m) / EARTH_RADIUS_M), rx.lon_deg)
    else:
        rx = destination_point(ap, rng.uniform(0.0, 360.0), distance_m + major_m)
        rx = GeoPoint(rx.lat_deg, rx.lon_deg)
    while True:  # until the link overlaps an authorized channel
        link = dataclasses.replace(_link(rng, 0, rx, ()), azimuth_deg=initial_bearing_deg(rx, ap))
        db = IncumbentDatabase(fs_links=(link,))
        if db.link_rows:
            return db, LocationEllipse(ap, major_m, 0.0, 0.0, 0.0)


def _main_raw(db, loc, pcfg, limit) -> float:
    """The walk's raw EIRP for the single link of db at f_lo and its main-lobe gain."""
    ((_, f_lo, _, budget),) = walk_links(db.link_rows, loc.center, loc.major_axis_m, pcfg, limit, math.inf)
    assert budget.gain_dbi == db.fs_links[0].max_gain_dbi
    return _raw(budget, f_lo, limit, budget.gain_dbi)


def _terms(db):
    """(noise, main gain, f_lo) of the single link of db, as keep_out_cells passes them."""
    (row,) = db.link_rows
    return row[7], row[8], row[1]


@pytest.mark.parametrize("branch", ["free-space", "clutter", "threshold"])
def test_link_at_its_radius_and_one_ulp_inside(branch):
    # Exactly at its keep-out radius the walk drops the link; one ulp inside,
    # the walk keeps it, so the prune must hand it over. The ceiling (free
    # space, clutter) or the regime threshold (where the radius is the
    # threshold itself) is set to put the link there.
    for seed in range(90):
        rng = random.Random(f"keep-out-edge:{branch}:{seed}")
        region = list(REGIONS)[seed % len(REGIONS)]
        distance = rng.uniform(2_000.0, 40_000.0) if branch == "free-space" else rng.uniform(2_000.0, 400_000.0)
        major = rng.choice([0.0, rng.uniform(0.0, 300.0), rng.uniform(0.0, 60_000.0)])
        db, loc = _edge_case(rng, region, distance, major, on_edge=seed % 2 == 0)
        d = max(1.0, haversine_distance(loc.center, db.fs_links[0].rx_location) - major)
        clutter = rng.uniform(6.0, 25.0)
        if branch == "threshold":
            # The ceiling lies halfway up the clutter step at the link's
            # distance d, so the radius is the threshold: with the threshold
            # at d the link is dropped, with it one ulp beyond d kept.
            base = PropagationConfig(regime_threshold_m=d, clutter_offset_db=clutter)
            free = dataclasses.replace(base, clutter_offset_db=0.0)
            limit = rng.uniform(-20.0, 20.0) - _main_raw(db, loc, free, 0.0)
            ceiling = _main_raw(db, loc, free, limit) + clutter / 2.0
            prot = ProtectionConfig(limit, ceiling, ceiling - 50.0)
            at = (base, prot)
            inside = (dataclasses.replace(base, regime_threshold_m=math.nextafter(d, math.inf)), prot)
            assert keep_out_radius_m(*_terms(db), base, limit, ceiling) == d
        else:
            threshold = 1e9 if branch == "free-space" else 500.0
            pcfg = PropagationConfig(regime_threshold_m=threshold, clutter_offset_db=clutter)
            # A limit that puts the raw EIRP at the link somewhere in -20..30 dBm.
            limit = rng.uniform(-20.0, 30.0) - _main_raw(db, loc, pcfg, 0.0)
            raw = _main_raw(db, loc, pcfg, limit)
            at = (pcfg, ProtectionConfig(limit, raw, raw - 50.0))
            inside = (pcfg, ProtectionConfig(limit, math.nextafter(raw, math.inf), raw - 50.0))
            radius = keep_out_radius_m(*_terms(db), pcfg, limit, raw)
            assert math.isclose(radius, d, rel_tol=1e-11)
            assert (radius < pcfg.regime_threshold_m) == (branch == "free-space")
        for (pcfg, prot), walked in ((at, False), (inside, True)):
            _, kept = _handed_and_kept(db, pcfg, prot, loc)
            assert kept == ({0} if walked else set())
            _assert_exact(db, pcfg, prot, loc)


def _in_cell(rng: random.Random, p: GeoPoint) -> GeoPoint:
    """A random point of the 1 degree cell of p: the cells at latitude 90 and longitude 180 are edges only."""
    south, west = math.floor(p.lat_deg), math.floor(p.lon_deg)
    lat = 90.0 if south == 90 else min(rng.uniform(south, south + 1.0), math.nextafter(south + 1.0, south))
    lon = 180.0 if west == 180 else min(rng.uniform(west, west + 1.0), math.nextafter(west + 1.0, west))
    return GeoPoint(lat, lon)


def _beside_a_larger_radius(rng: random.Random, db, small_first: bool):
    """db's single link and one with 10-20 dB more main gain in the same cell, and the small link's index.

    The larger radius sets the cell's reach, so the cell is looked at and
    only the row bound of rows_within can skip the small link.
    """
    (small,) = db.fs_links
    while True:  # until the link overlaps an authorized channel
        big = _link(rng, 1, _in_cell(rng, small.rx_location), ())
        big = dataclasses.replace(big, max_gain_dbi=small.max_gain_dbi + rng.uniform(10.0, 20.0))
        if IncumbentDatabase(fs_links=(big,)).link_rows:
            break
    links = (small, big) if small_first else (big, small)
    return IncumbentDatabase(fs_links=links), 0 if small_first else 1


def _radii(db, pcfg, prot) -> list[tuple[int, float]]:
    """(link index, radius) of the single cell of db, in ascending order of radius."""
    (cell,) = keep_out_cells(db.link_rows, pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm).cells
    entries = cell[4]  # (radius, row, side-lobe radius, beam terms), in descending order of radius
    return [(row[0], radius) for radius, row, *_ in reversed(entries)]


@pytest.mark.parametrize("region", list(REGIONS))
def test_a_small_radius_beside_the_cell_reach(region):
    # Two links share a cell; the larger radius sets its reach. Exactly at its
    # own radius and one ulp outside it the walk drops the small link; one ulp
    # inside, the walk keeps it and the prune must hand it over. Receivers lie
    # on the cell's south edge with the AP due south, or anywhere.
    for seed in range(48):
        rng = random.Random(f"keep-out-pair:{region}:{seed}")
        major = rng.choice([0.0, rng.uniform(0.0, 300.0), rng.uniform(0.0, 60_000.0)])
        db, loc = _edge_case(rng, region, rng.uniform(2_000.0, 40_000.0), major, on_edge=seed % 2 == 0)
        # Free space at the link (a far threshold) or the clutter regime.
        threshold = 1e9 if seed % 3 == 0 else 500.0
        pcfg = PropagationConfig(regime_threshold_m=threshold, clutter_offset_db=rng.uniform(6.0, 25.0))
        limit = rng.uniform(-20.0, 30.0) - _main_raw(db, loc, pcfg, 0.0)
        raw = _main_raw(db, loc, pcfg, limit)
        pair, small = _beside_a_larger_radius(rng, db, small_first=seed % 4 < 2)
        ceilings = (math.nextafter(raw, -math.inf), raw, math.nextafter(raw, math.inf))
        for ceiling, walked in zip(ceilings, (False, False, True)):
            prot = ProtectionConfig(limit, ceiling, ceiling - 50.0)
            (first, low), (second, high) = _radii(pair, pcfg, prot)
            assert (first, second) == (small, 1 - small) and low < high
            _, kept = _handed_and_kept(pair, pcfg, prot, loc)
            assert (small in kept) == walked
            _assert_exact(pair, pcfg, prot, loc)


@pytest.mark.parametrize("region", list(REGIONS))
def test_the_cell_bound_keeps_its_rounding_margin(region):
    # The nearest point of a receiver's cell is the receiver itself when it
    # lies on the south edge with the AP due south: the cell bound is then its
    # distance d, less 1e-9 of d, 1 m and the contraction.
    pcfg, prot = PropagationConfig(), ProtectionConfig()
    for seed in range(24):
        rng = random.Random(f"keep-out-margin:{region}:{seed}")
        db, _ = _edge_case(rng, region, 10_000.0, 0.0, on_edge=True)
        rx = db.fs_links[0].rx_location
        pair, small = _beside_a_larger_radius(rng, db, small_first=seed % 2 == 0)
        ((_, radius), _) = _radii(pair, pcfg, prot)
        south = rx.lat_deg - math.degrees((radius + rng.uniform(1_000.0, 100_000.0)) / EARTH_RADIUS_M)
        ap = GeoPoint(south, rx.lon_deg)
        d = haversine_distance(ap, rx)
        cells = keep_out_cells(pair.link_rows, pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
        ((s, w, cos_min, reach, _),) = cells.cells
        assert (s, w) == (rx.lat_deg, math.floor(rx.lon_deg))
        contraction = rng.uniform(0.0, d - radius)
        bound = _cell_bound(
            ap.lat_deg, ap.lon_deg, math.cos(math.radians(ap.lat_deg)), s, w, cos_min, reach, contraction
        )
        assert d - 1.0 - 2e-9 * d < bound + contraction < d - 1.0 - 0.5e-9 * d


def _aimed_south_from_mid_cell(rng: random.Random, region: str):
    """One link whose receiver lies half a degree north of its cell's south edge, aimed due south."""
    p = REGIONS[region](rng)
    rx = GeoPoint(math.floor(p.lat_deg) + 0.5, p.lon_deg)
    while True:  # until the link overlaps an authorized channel
        db = IncumbentDatabase(fs_links=(dataclasses.replace(_link(rng, 0, rx, ()), azimuth_deg=180.0),))
        if db.link_rows:
            return db


@pytest.mark.parametrize("region", list(REGIONS))
def test_the_row_bound_keeps_its_rounding_margin(region):
    # An AP due south of a receiver, in its main beam: rows_within hands the
    # row over when its chord from the AP is within the reach (radius plus
    # contraction) widened by 1e-9. A reach 0.5e-9 of the chord short of it is
    # still handed over, one 2e-9 short is not. The receiver lies mid-cell, so
    # the cell bound sits some 55 km below its distance, and a larger radius
    # beside it keeps the cell in play: only the row bound decides.
    pcfg, prot = PropagationConfig(), ProtectionConfig()
    for seed in range(24):
        rng = random.Random(f"keep-out-row-margin:{region}:{seed}")
        db = _aimed_south_from_mid_cell(rng, region)
        rx = db.fs_links[0].rx_location
        pair, small = _beside_a_larger_radius(rng, db, small_first=seed % 2 == 0)
        ((_, radius), _) = _radii(pair, pcfg, prot)
        south = rx.lat_deg - math.degrees((radius + rng.uniform(1_000.0, 100_000.0)) / EARTH_RADIUS_M)
        ap = GeoPoint(south, rx.lon_deg)
        chord = 2.0 * EARTH_RADIUS_M * math.sin(haversine_distance(ap, rx) / (2.0 * EARTH_RADIUS_M))
        cells = keep_out_cells(pair.link_rows, pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
        for short, within in ((0.5e-9, True), (2e-9, False)):
            contraction = chord * (1.0 - short) - radius
            handed = [row[0] for row in rows_within(cells, ap, contraction)]
            assert (small in handed) == within
            _assert_exact(pair, pcfg, prot, LocationEllipse(ap, contraction, 0.0, 0.0, 0.0))


def test_a_cell_by_the_pole_hands_over_only_receivers_in_reach():
    # Near the pole the cell bound of a cell that touches it keeps only its
    # latitude gap: from 89.93 N, -170.48 it is -1 m for the cell at 89 N,
    # 92 E, whose nearest point (the pole) is 7.8 km away. The row bound then
    # hands over only the receivers whose distance is within their reach.
    ap = GeoPoint(89.93, -170.48)
    pcfg, prot = PropagationConfig(), ProtectionConfig()
    limit, ceiling = prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm
    cos_ap = math.cos(math.radians(ap.lat_deg))
    handed_in_cell = skipped_in_cell = 0
    for seed in range(12):
        rng = random.Random(f"keep-out-by-the-pole:{seed}")
        links = []
        for i in range(40):
            rx = GeoPoint(rng.uniform(89.0, 90.0), rng.uniform(92.0, 93.0))
            # Beams of 360 degrees hold the AP, so each row's reach is its main-lobe radius.
            links.append(dataclasses.replace(_link(rng, i, rx, ()), beamwidth_deg=360.0))
        db = IncumbentDatabase(fs_links=tuple(links))
        cells = keep_out_cells(db.link_rows, pcfg, limit, ceiling)
        ((s, w, cos_min, reach, entries),) = cells.cells
        assert (s, w) == (89, 92)
        contraction = rng.choice([0.0, 100.0, 5_000.0])
        assert _cell_bound(ap.lat_deg, ap.lon_deg, cos_ap, s, w, cos_min, reach, contraction) + contraction < 0.0
        handed = {row[0] for row in rows_within(cells, ap, contraction)}
        for radius, row, *_ in entries:
            d = haversine_distance(ap, GeoPoint(row[3], row[4]))
            if d < (radius + contraction) * (1.0 - 1e-6):
                assert row[0] in handed
            elif d > (radius + contraction) * (1.0 + 1e-6):
                assert row[0] not in handed
        handed_in_cell += len(handed)
        skipped_in_cell += len(entries) - len(handed)
        _, kept = _handed_and_kept(db, pcfg, prot, LocationEllipse(ap, contraction, 0.0, 0.0, 0.0))
        assert kept <= handed
    assert handed_in_cell > 0 and skipped_in_cell > 0


def test_a_window_over_the_pole_looks_at_every_cell():
    # From 84-89 degrees N, a link just across the pole lies 180 degrees of
    # longitude away. Only a cap that holds the pole reaches it, where no
    # longitude window bounds the cells; one ulp inside its radius the walk
    # keeps it, so the prune must hand it over.
    for seed in range(40):
        rng = random.Random(f"keep-out-pole:{seed}")
        ap = GeoPoint(rng.uniform(84.0, 89.0), rng.uniform(-80.0, 80.0))
        beyond = EARTH_RADIUS_M * math.radians(90.0 - ap.lat_deg) + rng.uniform(10_000.0, 300_000.0)
        rx = destination_point(ap, 0.0, beyond)
        rx = GeoPoint(rx.lat_deg, rx.lon_deg)
        while True:  # until the link overlaps an authorized channel
            link = dataclasses.replace(_link(rng, 0, rx, ()), azimuth_deg=initial_bearing_deg(rx, ap))
            db = IncumbentDatabase(fs_links=(link,))
            if db.link_rows:
                break
        loc = LocationEllipse(ap, rng.uniform(0.0, 300.0), 0.0, 0.0, 0.0)
        pcfg = PropagationConfig(regime_threshold_m=1e9, clutter_offset_db=10.0)
        limit = rng.uniform(-20.0, 30.0) - _main_raw(db, loc, pcfg, 0.0)
        ceiling = math.nextafter(_main_raw(db, loc, pcfg, limit), math.inf)
        prot = ProtectionConfig(limit, ceiling, ceiling - 50.0)
        _, kept = _handed_and_kept(db, pcfg, prot, loc)
        assert kept == {0}
        _assert_exact(db, pcfg, prot, loc)


def test_a_radius_beyond_half_the_globe_skips_nothing():
    # At an I/N limit of -300 dB every link binds anywhere on Earth: its
    # radius spans more than half the globe and no cell may be skipped.
    for seed in range(20):
        db, pcfg, _, _ = random_world(seed, n_links_max=8)
        rng = random.Random(f"keep-out-globe:{seed}")
        prot = ProtectionConfig(-300.0, 36.0, 21.0)
        for _ in range(4):
            loc = _ellipse(rng, GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)))
            handed, kept = _handed_and_kept(db, pcfg, prot, loc)
            assert sorted(handed) == sorted(kept) == sorted(row[0] for row in db.link_rows)
            _assert_exact(db, pcfg, prot, loc)


# --- the side-lobe radius and the beam test ------------------------------------

def _unpruned_grants(db, pcfg, prot, loc):
    """compute_availability with the walk over all of link_rows: no row is left out before it.

    db must be large enough to be pruned (tests/worldgen.py padded); the prune it replaces must have run.
    """
    with mock.patch.object(server, "rows_within", return_value=db.link_rows) as prune:
        grants = compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)
    prune.assert_called_once()
    return grants


def _assert_beam_exact(db, pcfg, prot, loc) -> tuple[list, set]:
    """rows_within hands over each row the walk keeps, once, and the grants equal the unpruned walk's.

    db is padded with far links to the size that compute_availability prunes; rows_within hands over none
    of them, so the handed and kept rows are those of db.
    """
    n_links = len(db.fs_links)
    db = padded(db, loc.center)
    handed, kept = _handed_and_kept(db, pcfg, prot, loc)
    assert len(handed) == len(set(handed)) and kept <= set(handed)
    assert all(i < n_links for i in handed)
    assert compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot) == _unpruned_grants(db, pcfg, prot, loc)
    return handed, kept


def _raws(db, loc, pcfg, limit) -> tuple[float, float]:
    """The walk's raw EIRP for the single link of db at f_lo, at its main- and at its side-lobe gain."""
    ((_, f_lo, _, budget),) = walk_links(db.link_rows, loc.center, loc.major_axis_m, pcfg, limit, math.inf)
    (row,) = db.link_rows
    return _raw(budget, f_lo, limit, row[8]), _raw(budget, f_lo, limit, row[9])


def _aimed(rng: random.Random, region: str, distance_m: float, offset_deg: float, beamwidth_deg=None):
    """One link whose receiver lies distance_m from an AP of region, aimed offset_deg off the walk's
    bearing to the AP, with 30 dB discrimination; the database, the AP's ellipse and the link's angle
    off boresight as the walk measures it."""
    ap = REGIONS[region](rng)
    # Across the antimeridian, east or west.
    heading = rng.choice([90.0, 270.0]) if region == "antimeridian" else rng.uniform(0.0, 360.0)
    rx = destination_point(ap, heading, distance_m)
    rx = GeoPoint(rx.lat_deg, rx.lon_deg)
    bearing = initial_bearing_deg(rx, ap)
    while True:  # until the link overlaps an authorized channel
        link = dataclasses.replace(
            _link(rng, 0, rx, ()),
            azimuth_deg=(bearing + offset_deg) % 360.0,
            discrimination_db=30.0,
            beamwidth_deg=beamwidth_deg or rng.uniform(1.0, 10.0),
        )
        db = IncumbentDatabase(fs_links=(link,))
        if db.link_rows:
            return db, LocationEllipse(ap, 0.0, 0.0, 0.0, 0.0), off_axis_deg(bearing, link.azimuth_deg)


def _binding_at_main(db, loc, pcfg, margin_db: float = 10.0) -> ProtectionConfig:
    """A protection config under which the single link of db permits margin_db under the ceiling at its
    main-lobe gain, and (30 dB discrimination) 20 dB over it at its side-lobe gain."""
    limit = 36.0 - margin_db - _raws(db, loc, pcfg, 0.0)[0]
    return ProtectionConfig(limit, 36.0, -14.0)


_NANORAD_DEG = math.degrees(1e-9)


@pytest.mark.parametrize("region", list(REGIONS))
def test_an_ap_on_the_boresight_and_the_beam_edges(region):
    # An AP 300 km from the receiver, beyond its side-lobe radius and within
    # its main-lobe radius: on the boresight, on either edge of the beam (the
    # edge is inside it) and 1e-9 rad inside the edge the walk keeps the row at
    # its main-lobe gain, and the beam test must hand it over; 1e-9 rad outside
    # the edge the walk drops it.
    sides, signs = set(), set()
    for seed in range(24):
        rng = random.Random(f"keep-out-beam:{region}:{seed}")
        pcfg = PropagationConfig(regime_threshold_m=rng.choice([1000.0, 1e9]), clutter_offset_db=10.0)
        sign = rng.choice([-1.0, 1.0])
        signs.add(sign)
        db, loc, _ = _aimed(rng, region, 300_000.0, 0.0)
        rx = db.fs_links[0].rx_location
        sides.add((rx.lon_deg > 0.0, loc.center.lon_deg > 0.0))
        prot = _binding_at_main(db, loc, pcfg)
        _, kept = _assert_beam_exact(db, pcfg, prot, loc)
        assert kept == {0}
        db, loc, theta = _aimed(rng, region, 300_000.0, sign * rng.uniform(0.5, 5.0))
        for half_bw, walked in ((theta, True), (theta + _NANORAD_DEG, True), (theta - _NANORAD_DEG, False)):
            edge = IncumbentDatabase(fs_links=(dataclasses.replace(db.fs_links[0], beamwidth_deg=2.0 * half_bw),))
            _, kept = _assert_beam_exact(edge, pcfg, _binding_at_main(edge, loc, pcfg), loc)
            assert kept == ({0} if walked else set())
    assert signs == {-1.0, 1.0}  # both edges of the beam
    if region == "antimeridian":
        assert {(True, False), (False, True)} <= sides


@pytest.mark.parametrize("beamwidth", [180.0, 360.0])
def test_beams_of_half_the_sky_and_more(beamwidth):
    # A half beamwidth of 90 degrees or more gets zero beam terms, which never
    # leave a row out: the row is handed over wherever its radius reaches, in
    # the beam or behind it.
    for seed in range(24):
        rng = random.Random(f"keep-out-wide:{beamwidth}:{seed}")
        region = list(REGIONS)[seed % len(REGIONS)]
        offset = rng.choice([0.0, 80.0, 90.0, 100.0, 179.0, 180.0]) * rng.choice([-1.0, 1.0])
        db, loc, _ = _aimed(rng, region, 300_000.0, offset, beamwidth)
        pcfg = PropagationConfig()
        _, kept = _assert_beam_exact(db, pcfg, _binding_at_main(db, loc, pcfg), loc)
        in_beam = beamwidth == 360.0 or abs(offset) <= 90.0
        assert kept == ({0} if in_beam else set())


def test_an_ap_on_the_receiver_and_within_a_metre():
    # The receiver lies on the south edge of its cell; the AP stands on it, or
    # up to 1 m away, also across the edge in the cell below.
    for seed in range(40):
        rng = random.Random(f"keep-out-on-receiver:{seed}")
        region = list(REGIONS)[seed % len(REGIONS)]
        ap = REGIONS[region](rng)
        rx = GeoPoint(float(math.floor(ap.lat_deg)), ap.lon_deg)
        db, _, _ = _aimed(rng, region, 300_000.0, rng.uniform(0.0, 360.0))
        link = dataclasses.replace(db.fs_links[0], rx_location=GeoPoint(rx.lat_deg, rx.lon_deg, 30.0))
        db = IncumbentDatabase(fs_links=(link,))
        pcfg = PropagationConfig()
        for bearing, distance in ((0.0, 0.0), (180.0, 0.5), (180.0, 1.0), (rng.uniform(0.0, 360.0), 0.7)):
            q = destination_point(rx, bearing, distance) if distance else rx
            loc = LocationEllipse(GeoPoint(q.lat_deg, q.lon_deg), rng.choice([0.0, 0.5, 50.0]), 0.0, 0.0, 0.0)
            for prot in (ProtectionConfig(), wide_protection(rng)):
                _assert_beam_exact(db, pcfg, prot, loc)


@pytest.mark.parametrize("region", list(REGIONS))
def test_a_row_at_its_side_lobe_radius_and_one_ulp_either_side(region):
    # Off the beam, 300 km out: at its side-lobe raw value and one ulp under it
    # the walk drops the row; one ulp over it the walk keeps the row, which
    # only the side-lobe radius can then hand over.
    for seed in range(24):
        rng = random.Random(f"keep-out-side:{region}:{seed}")
        threshold = rng.choice([1000.0, 1e9])
        pcfg = PropagationConfig(regime_threshold_m=threshold, clutter_offset_db=rng.uniform(6.0, 25.0))
        db, loc, _ = _aimed(rng, region, 300_000.0, rng.uniform(20.0, 180.0) * rng.choice([-1.0, 1.0]))
        limit = rng.uniform(-20.0, 20.0) - _raws(db, loc, pcfg, 0.0)[1]
        side_raw = _raws(db, loc, pcfg, limit)[1]
        (row,) = db.link_rows
        d = haversine_distance(loc.center, db.fs_links[0].rx_location)
        assert math.isclose(keep_out_radius_m(row[7], row[9], row[1], pcfg, limit, side_raw), d, rel_tol=1e-11)
        for ceiling, walked in (
            (math.nextafter(side_raw, -math.inf), False),
            (side_raw, False),
            (math.nextafter(side_raw, math.inf), True),
        ):
            _, kept = _assert_beam_exact(db, pcfg, ProtectionConfig(limit, ceiling, ceiling - 50.0), loc)
            assert kept == ({0} if walked else set())
        # Well inside its side-lobe radius the row lowers the caps.
        ceiling = side_raw + 10.0
        prot = ProtectionConfig(limit, ceiling, ceiling - 50.0)
        _assert_beam_exact(db, pcfg, prot, loc)
        assert compute_availability(loc, ALL_BANDWIDTHS, padded(db, loc.center), pcfg, prot) != _unpruned_grants(
            padded(IncumbentDatabase(), loc.center), pcfg, prot, loc
        )


def _metro_inquiries(n_links: int, n_inquiries: int):
    rng = random.Random("keep-out-count")
    metros = [GeoPoint(rng.uniform(30.0, 46.0), rng.uniform(-120.0, -76.0)) for _ in range(40)]
    receivers = [_near(rng, metros[i % len(metros)], 50_000.0) for i in range(n_links)]
    links = tuple(_link(rng, i, rx, ()) for i, rx in enumerate(receivers))
    locs = []
    for _ in range(n_inquiries):
        rx = rng.choice(receivers)
        q = destination_point(rx, rng.uniform(0.0, 360.0), rng.uniform(500.0, 20_000.0))
        locs.append(LocationEllipse(GeoPoint(q.lat_deg, q.lon_deg), rng.uniform(5.0, 300.0), 0.0, 0.0, 0.0))
    return IncumbentDatabase(fs_links=links), locs


def _main_lobe_keeps(db, loc, pcfg, prot) -> int:
    """The rows of db.link_rows whose raw EIRP at f_lo is under the ceiling at the main-lobe gain: the walk's
    test before it knew the gain, and the rows a prune by main-lobe radius alone would have to hand over."""
    limit, ceiling = prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm
    return sum(
        _raw(budget, f_lo, limit, db.fs_links[i].max_gain_dbi) < ceiling
        for i, f_lo, _, budget in walk_links(db.link_rows, loc.center, loc.major_axis_m, pcfg, limit, math.inf)
    )


def candidate_lists(index) -> dict:
    """Per AP cell (west, south) of a keep-out index with a candidate list, (the smallest key the list left
    out, the number of cells it lists, the number of entries it holds)."""
    return {
        key: (limit, len(listed), sum(len(sides) + len(beams) for *_, sides, beams in listed))
        for key, (limit, listed) in index.lists.items()
    }


class _Looked(tuple):
    """A keep-out cell that counts the scans that unpack it."""

    count = 0

    def __iter__(self):
        _Looked.count += 1
        return super().__iter__()


def test_the_prune_hands_the_walk_few_rows(monkeypatch):
    # Equality with the reference cannot tell a prune that skips nothing from
    # one that works; count the rows handed to walk_links instead. 1,000
    # links around 40 metros, with the default configs: about 0.28 % of the
    # rows reach the walk per inquiry, as many as the walk keeps (2 % without
    # the row bound, 4.8 % by main-lobe radius alone). Per-row radii hand
    # over about 1.2 rows per row that keeps its raw EIRP under the ceiling
    # at the main-lobe gain; a prune by whole cells hands over about 2.4, the
    # side-lobe radius and the beam test about 0.5, and the row bound 0.07.
    db, locs = _metro_inquiries(1000, 100)
    pcfg, prot = PropagationConfig(), ProtectionConfig()
    key = (pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
    cells = keep_out_cells(db.link_rows, pcfg, *key[1:])
    db.keep_out_cells[key] = cells._replace(cells=tuple(_Looked(cell) for cell in cells.cells))
    handed = []

    def counting_walk(rows, *args):
        rows = list(rows)
        handed.append(len(rows))
        return walk_links(rows, *args)

    monkeypatch.setattr(server, "walk_links", counting_walk)
    kept = 0
    for loc in locs:
        compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)
        kept += _main_lobe_keeps(db, loc, pcfg, prot)
    share = sum(handed) / (len(handed) * len(db.link_rows))
    assert len(handed) == len(locs) and 0.0 < share < 0.03
    assert 0 < sum(handed) <= 1.5 * kept
    assert sum(handed) <= 0.2 * kept
    # The candidate lists. Once each AP cell has its list, an inquiry unpacks no cell of the index (a scan
    # by main-lobe radius looked at about 36 of the 103 cells). A list holds about 4.9 cells and 3.5 % of
    # the rows, and 9.9 cells and 5.6 % without its cell-level beam test; the bounds lie between the two.
    _Looked.count = 0
    for loc in locs:
        compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)
    assert _Looked.count == 0
    index = db.keep_out_cells[key]
    # Every list lives in index.lists, that of an AP cell with rows as that of one without.
    occupied = {(cell[1], cell[0]) for cell in index.cells}
    ap_cells = {(math.floor(loc.center.lon_deg), math.floor(loc.center.lat_deg)) for loc in locs}
    assert set(index.lists) == ap_cells and ap_cells & occupied and ap_cells - occupied
    sizes = candidate_lists(index).values()
    assert 2.0 < sum(listed for _, listed, _ in sizes) / len(sizes) < 7.0
    assert 0 < sum(entries for _, _, entries in sizes) / len(sizes) < 0.045 * len(db.link_rows)


def test_harm_reports_every_row_beyond_every_radius():
    # Every link lies beyond its keep-out radius: no row reaches the grant
    # walk, and harm still reports each co-channel link with the per-pair I/N.
    # Far links pad each world to the size that builds keep-out cells.
    reported = 0
    for seed in range(40):
        world, pcfg, prot, aps = random_world(seed, n_links_max=8)
        db = padded(world, aps[0])
        rng = random.Random(f"keep-out-harm:{seed}")
        far = destination_point(aps[0], rng.uniform(0.0, 360.0), rng.uniform(2_500_000.0, 4_000_000.0))
        pos = GeoPoint(far.lat_deg, far.lon_deg)
        loc = LocationEllipse(pos, 0.0, 0.0, 0.0, 0.0)
        assert len(compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)) == 76
        assert rows_within(db.keep_out_cells[pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm], pos, 0.0) == []
        world = World(database=db, propagation=pcfg, protection=prot)
        for row in db.link_rows:
            channel = CHANNELS[row[2][-1]]
            eirp = rng.uniform(20.0, 36.0)
            rows, _ = assess_harm([("AP-FAR", pos, channel, eirp)], world)
            want = [
                (
                    link.id,
                    reference_i_over_n_db(link, pos, channel, eirp, pcfg, haversine_distance(pos, link.rx_location)),
                )
                for link in db.fs_links
                if constrains(link, channel)
            ]
            assert [(r.link_id, r.i_over_n_db) for r in rows] == want
            reported += len(rows)
    assert reported > 100
