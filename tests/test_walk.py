"""The compiled link walk equals the single-pair chain bit for bit.

walk_links recomputes, per compiled row, what contracted_distance_m,
link_budget and rx_gain_dbi computed per (request, link) before the rows
existed. The references are those functions as they were written then,
over geo.haversine_distance: contracted_distance_m below and the chain of
tests/reference_chain.py; every term is compared with ==. The walk takes
the gain from the row's beam normals and falls back to the bearing only
within _BEAM_EPS of a beam edge; the gain tests place APs on, and 1e-13
and 1e-9 rad beside, each edge, where either may decide. With a finite
ceiling the walk also drops the rows that cannot lower a cap at their own
gain; the tests at the end check that this drop is exact.
"""

import dataclasses
import math
import random

import pytest

from afcsim.channels import FrequencyRange, center_frequency_mhz, us_standard_power_channels
from afcsim.errors import CoincidentPoints
from afcsim.geo import EARTH_RADIUS_M, GeoPoint, destination_point, haversine_distance, initial_bearing_deg
from afcsim.propagation import (
    _BEAM_EPS,
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    constrains,
    distance_loss_db,
    frequency_loss_db,
    link_row,
    walk_links,
)
from afcsim.scenario import assess_harm
from afcsim.server import IncumbentDatabase, World
from tests.reference_chain import LinkBudget, clutter_db, link_budget, off_axis_deg, rx_gain_dbi
from tests.worldgen import random_world, wide_protection

# Every authorized channel in grant order, and the frequency term of each.
CHANNELS = [ch for bw in (20, 40, 80, 160, 320) for ch in us_standard_power_channels(bw)]
FREQ_LOSS = [frequency_loss_db(center_frequency_mhz(ch)) for ch in CHANNELS]
LIMIT = ProtectionConfig().i_over_n_limit_db


def contracted_distance_m(ap_pos: GeoPoint, link: FsLink, contraction_m: float = 0.0) -> float:
    """max(1 m, distance from ap_pos to the receiver - contraction_m)."""
    return max(1.0, haversine_distance(ap_pos, link.rx_location) - contraction_m)


def reference_walk(rows, links, ap_pos, contraction_m, pcfg):
    out = []
    for row in rows:
        index, f_lo, positions = row[:3]
        link = links[index]
        budget = link_budget(link, ap_pos, contracted_distance_m(ap_pos, link, contraction_m), pcfg)
        out.append((index, f_lo, positions, budget))
    return out


def _assert_walk_matches(rows, links, ap_pos, contraction_m, pcfg):
    # A LinkBudget equals its reference copy when every term does. An
    # infinite ceiling drops no row.
    got = list(walk_links(rows, ap_pos, contraction_m, pcfg, LIMIT, math.inf))
    assert got == reference_walk(rows, links, ap_pos, contraction_m, pcfg)


def _normals_decide(row, ap: GeoPoint) -> bool:
    """Whether the row's beam normals, not the bearing, decide the walk's gain toward ap."""
    lat, lon = math.radians(ap.lat_deg), math.radians(ap.lon_deg)
    p = (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
    left = sum(n * c for n, c in zip(row[12:15], p))
    right = sum(n * c for n, c in zip(row[15:18], p))
    return left < -_BEAM_EPS or right < -_BEAM_EPS or (left > _BEAM_EPS and right > _BEAM_EPS)


def test_walk_matches_the_single_pair_chain_over_worldgen():
    pairs = decided = 0
    for seed in range(500):
        db, pcfg, _, aps = random_world(seed)
        rng = random.Random(f"walk:{seed}")
        rows = db.link_rows
        # Every receiver doubles as an AP position, where the bearing is undefined.
        receivers = [GeoPoint(link.rx_location.lat_deg, link.rx_location.lon_deg) for link in db.fs_links]
        for pos in list(aps) + receivers:
            major = rng.choice([rng.uniform(0.0, 300.0), rng.uniform(0.0, 60_000.0)])
            for contraction in (0.0, major):
                _assert_walk_matches(rows, db.fs_links, pos, contraction, pcfg)
                pairs += len(rows)
            decided += sum(_normals_decide(row, pos) for row in rows)
    # The normals decide most gains (decided counts each position and row once, pairs twice); the
    # bearing decides those of an AP on a receiver and of the beams of 180 degrees or more.
    assert pairs > 10_000 and pairs // 4 < decided < pairs // 2


def _assert_rows_match_constrains(db):
    want = []
    for index, link in enumerate(db.fs_links):
        positions = tuple(p for p, ch in enumerate(CHANNELS) if constrains(link, ch))
        if positions:
            f_lo = min(FREQ_LOSS[p] for p in positions)
            want.append((index, f_lo, positions))
    assert [row[:3] for row in db.link_rows] == want


def test_compiled_rows_cover_every_co_channel_link_once():
    for seed in range(50):
        db, _, _, _ = random_world(seed, n_links_max=40)
        _assert_rows_match_constrains(db)


def test_compiled_rows_at_channel_edges():
    up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, -math.inf))
    ranges = [
        # On channel edges: 40 MHz [5985, 6025] shares only edges with its neighbours.
        (5985.0, 6025.0),
        # One ulp inside the same edges, and one ulp outside them.
        (up(5985.0), down(6025.0)),
        (down(5985.0), up(6025.0)),
        # 320 MHz wide across both 320 MHz variants ([5945, 6265] and [6105, 6425]).
        (6000.0, 6320.0),
        # Sharing only an edge with the band's first and last channels.
        (5925.0, 5945.0),
        (up(5925.0), 5945.0),
        (5925.0, 7125.0),
    ]
    links = tuple(dataclasses.replace(BASE_LINK, freq_range=FrequencyRange(lo, hi)) for lo, hi in ranges)
    db = IncumbentDatabase(fs_links=links)
    _assert_rows_match_constrains(db)
    # The run bounds are exact: the on-edge link overlaps the 40 MHz channel
    # it spans and not the channels that merely touch it.
    rows = {row[0]: row[2] for row in db.link_rows}
    assert len(rows[0]) < len(rows[2]) and set(rows[1]) == set(rows[0])
    assert 4 not in rows and 5 not in rows


BASE_LINK = FsLink(
    id="EDGE",
    rx_location=GeoPoint(40.0, -100.0),
    freq_range=FrequencyRange(6000.0, 6020.0),
    bandwidth_mhz=20.0,
    noise_figure_db=5.0,
    max_gain_dbi=33.0,
    azimuth_deg=0.0,
    beamwidth_deg=6.0,
    discrimination_db=25.0,
)

# (receiver, AP) pairs at the places where the trigonometry degenerates.
EDGES = {
    "on-receiver": ((40.0, -100.0), (40.0, -100.0)),
    "same-latitude": ((40.0, -100.0), (40.0, -99.93)),
    "same-longitude": ((40.0, -100.0), (39.94, -100.0)),
    "across-180": ((10.0, 179.97), (10.01, -179.98)),
    "across-180-reversed": ((-10.0, -179.99), (-10.02, 179.96)),
    "on-180": ((10.0, 180.0), (9.99, -179.98)),
    "north-89.9": ((89.9, 10.0), (89.9, -170.0)),
    "south-89.9": ((-89.9, 0.0), (-89.9, 45.0)),
    # Exact antipodes, at which the haversine term rounds above 1.
    "antipode": ((-24.89234174456081, -154.11349448595666), (24.89234174456081, 25.886505514043336)),
}


def _edge_links(rx: GeoPoint, ap: GeoPoint):
    """Links at rx whose beams point at, near, beside and away from ap."""
    try:
        bearing = initial_bearing_deg(rx, ap)
    except CoincidentPoints:
        bearing = 0.0
    links = []
    for offset in (0.0, 1.0, -2.9, 3.1, -4.0, 6.0, 90.0, 179.0, 180.0):
        azimuth = (bearing + offset) % 360.0
        for beamwidth in (6.0, 10.0, 360.0):
            links.append(
                dataclasses.replace(BASE_LINK, rx_location=rx, azimuth_deg=azimuth, beamwidth_deg=beamwidth)
            )
    return links


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_walk_matches_at_degenerate_geometry(edge):
    (rx_lat, rx_lon), (ap_lat, ap_lon) = EDGES[edge]
    rx, ap = GeoPoint(rx_lat, rx_lon, 30.0), GeoPoint(ap_lat, ap_lon)
    links = _edge_links(rx, ap)
    rows = [link_row(i, 0.0, (), link) for i, link in enumerate(links)]
    for pcfg in (PropagationConfig(), PropagationConfig(regime_threshold_m=50_000.0, clutter_offset_db=15.0)):
        for contraction in (0.0, 100.0, 1e7):
            _assert_walk_matches(rows, links, ap, contraction, pcfg)
    # On the receiver and at its antipode r is 0 or rounds near it, so the bearing decides every gain,
    # beams pointed away included; elsewhere the normals decide all but the 360 degree beams.
    decided = sum(_normals_decide(row, ap) for row in rows)
    assert decided == (0 if edge in ("on-receiver", "antipode") else len(rows) * 2 // 3)


def test_one_row_walk_at_the_antipode_is_half_a_great_circle_away():
    half_turn = 2.0 * EARTH_RADIUS_M * math.atan2(1.0, 0.0)
    a, b = EDGES["antipode"]
    for (rx_lat, rx_lon), (ap_lat, ap_lon) in ((a, b), (b, a)):
        link = dataclasses.replace(BASE_LINK, rx_location=GeoPoint(rx_lat, rx_lon, 30.0))
        row = link_row(0, 0.0, (), link)
        ((_, _, _, budget),) = walk_links((row,), GeoPoint(ap_lat, ap_lon), 0.0, PropagationConfig(), LIMIT, math.inf)
        assert budget.distance_loss_db == distance_loss_db(half_turn)


def test_walk_matches_at_the_regime_threshold():
    rx, ap = GeoPoint(40.0, -100.0), GeoPoint(40.03, -99.97)
    rows = [link_row(0, 0.0, (), BASE_LINK)]
    hits = 0
    for contraction in (0.0, 250.0):
        d = contracted_distance_m(ap, BASE_LINK, contraction)
        for threshold in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
            pcfg = PropagationConfig(regime_threshold_m=threshold, clutter_offset_db=20.0)
            _assert_walk_matches(rows, [BASE_LINK], ap, contraction, pcfg)
            hits += clutter_db(d, pcfg) == 20.0
    assert hits == 4  # exactly at, and one ulp under, the threshold the clutter applies


def test_walk_matches_on_the_beam_edge():
    rx = BASE_LINK.rx_location
    hits = 0
    for toward in map(math.radians, (17.0, 123.0, 250.0, 359.0)):
        ap = GeoPoint(40.0 + 0.05 * math.cos(toward), -100.0 + 0.05 * math.sin(toward))
        bearing = initial_bearing_deg(rx, ap)
        for azimuth in (bearing - 2.5, bearing + 4.0, (bearing + 100.0) % 360.0):
            azimuth %= 360.0
            theta = off_axis_deg(bearing, azimuth)
            # 2 theta halves back to theta exactly: the AP sits on the beam edge.
            for beamwidth in (2.0 * theta, math.nextafter(2.0 * theta, 0.0), 1.5 * theta):
                link = dataclasses.replace(BASE_LINK, azimuth_deg=azimuth, beamwidth_deg=beamwidth)
                rows = [link_row(0, 0.0, (), link)]
                _assert_walk_matches(rows, [link], ap, 0.0, PropagationConfig())
                hits += rx_gain_dbi(link, ap) == link.max_gain_dbi
    assert hits == 12  # the edge itself is inside the beam; one ulp narrower is not


# --- the gain: the beam normals, and the bearing within _BEAM_EPS of an edge ---

def _assert_gains_match(links, ap: GeoPoint) -> int:
    """The walk's gain toward ap equals rx_gain_dbi for every link; returns how many the normals decided."""
    rows = [link_row(i, 0.0, (), link) for i, link in enumerate(links)]
    walked = walk_links(rows, ap, 0.0, PropagationConfig(), LIMIT, math.inf)
    assert [budget.gain_dbi for *_, budget in walked] == [rx_gain_dbi(link, ap) for link in links]
    return sum(_normals_decide(row, ap) for row in rows)


@pytest.mark.parametrize("distance_m", [2.0, 5_000.0, 500_000.0, 5_000_000.0])
def test_gain_on_boresight(distance_m):
    rx = BASE_LINK.rx_location
    for toward in (0.0, 37.0, 90.0, 181.0, 270.0, 359.5):
        ap = destination_point(rx, toward, distance_m)
        bearing = initial_bearing_deg(rx, ap)
        links = [dataclasses.replace(BASE_LINK, azimuth_deg=bearing, beamwidth_deg=bw) for bw in (0.5, 6.0, 170.0)]
        assert _assert_gains_match(links, ap) == len(links)
        assert rx_gain_dbi(links[0], ap) == BASE_LINK.max_gain_dbi


# Off each beam edge, in rad toward the inside of the beam.
EDGE_SHIFTS_RAD = (0.0, 1e-13, -1e-13, 1e-9, -1e-9)


@pytest.mark.parametrize("distance_m", [5_000.0, 500_000.0])
@pytest.mark.parametrize("edge", ["left", "right"])
def test_gain_on_and_beside_each_beam_edge(edge, distance_m):
    # The bearing is az - hb on the left edge and az + hb on the right. A half beamwidth of theta, the
    # walk's own off-axis angle, puts the AP on the edge exactly, where it is in the beam; shifting the
    # half beamwidth by s rad moves the AP s rad into the beam. Within _BEAM_EPS / r rad of the edge
    # the bearing decides, beyond it the normals: at 500 km (r = 0.08) they decide the 1e-9 rad shifts.
    rx = BASE_LINK.rx_location
    for toward in (17.0, 123.0, 250.0, 359.0):
        ap = destination_point(rx, toward, distance_m)
        bearing = initial_bearing_deg(rx, ap)
        for offset in (0.4, 3.0, 60.0):
            azimuth = (bearing + offset if edge == "left" else bearing - offset) % 360.0
            theta = off_axis_deg(bearing, azimuth)
            for shift in EDGE_SHIFTS_RAD:
                link = dataclasses.replace(
                    BASE_LINK, azimuth_deg=azimuth, beamwidth_deg=2.0 * (theta + math.degrees(shift))
                )
                decided = _assert_gains_match([link], ap)
                assert decided == (abs(shift) == 1e-9 and distance_m > 100_000.0)
                inside = rx_gain_dbi(link, ap) == link.max_gain_dbi
                assert inside == (shift >= 0.0)


@pytest.mark.parametrize("beamwidth", [180.0, 360.0])
def test_gain_of_half_and_whole_circle_beams(beamwidth):
    # A half beamwidth of 90 degrees or more has zero normals: the bearing decides every gain.
    rx = BASE_LINK.rx_location
    gains = set()
    for toward in (17.0, 123.0, 250.0, 359.0):
        for distance_m in (5_000.0, 500_000.0, 5_000_000.0):
            ap = destination_point(rx, toward, distance_m)
            bearing = initial_bearing_deg(rx, ap)
            links = [
                dataclasses.replace(BASE_LINK, azimuth_deg=(bearing + offset) % 360.0, beamwidth_deg=beamwidth)
                for offset in (0.0, 45.0, 89.0, 90.0, 91.0, 135.0, 180.0, 269.0, 270.0, 271.0)
            ]
            assert _assert_gains_match(links, ap) == 0
            gains.update(rx_gain_dbi(link, ap) for link in links)
    main, side = BASE_LINK.max_gain_dbi, BASE_LINK.max_gain_dbi - BASE_LINK.discrimination_db
    assert gains == ({main, side} if beamwidth == 180.0 else {main})


# --- the one drop: links that cannot bind at their gain toward the AP -------

def _raw(budget, f_lo, limit, gain):
    """The raw EIRP at f_lo of LinkBudget.lower_caps and of the walk's drop, written out with the given gain."""
    distance, clutter, noise, _ = budget
    return (noise + limit) + ((distance + f_lo) + clutter) - gain


def _assert_drop_is_exact(rows, ap_pos, contraction_m, pcfg, prot):
    """The dropping walk keeps exactly the rows of the full walk whose raw
    EIRP at f_lo, at the gain the walk found, is under the ceiling; each row
    it drops permits the ceiling on every one of its channels. Returns
    (dropped, kept)."""
    limit, ceiling = prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm
    kept = []
    dropped = 0
    for index, f_lo, positions, budget in walk_links(rows, ap_pos, contraction_m, pcfg, limit, math.inf):
        if _raw(budget, f_lo, limit, budget.gain_dbi) < ceiling:
            kept.append((index, f_lo, positions, budget))
            continue
        dropped += 1
        # The reference chain of tests/reference_chain.py, not LinkBudget.lower_caps.
        reference = LinkBudget(*budget)
        assert all(reference.max_eirp_dbm(FREQ_LOSS[p], prot) == ceiling for p in positions)
    assert list(walk_links(rows, ap_pos, contraction_m, pcfg, limit, ceiling)) == kept
    return dropped, len(kept)


def test_drop_keeps_exactly_the_links_that_can_bind_over_worldgen():
    dropped = kept = 0
    for seed in range(500):
        db, pcfg, prot, aps = random_world(seed)
        rng = random.Random(f"drop:{seed}")
        rows = db.link_rows
        receivers = [GeoPoint(link.rx_location.lat_deg, link.rx_location.lon_deg) for link in db.fs_links]
        # A spoofed fix far from every link, as the attacks report.
        far = destination_point(aps[0], rng.uniform(0.0, 360.0), rng.uniform(50_000.0, 2_000_000.0))
        for pos in list(aps) + receivers + [GeoPoint(far.lat_deg, far.lon_deg)]:
            major = rng.choice([0.0, rng.uniform(0.0, 300.0), rng.uniform(0.0, 60_000.0)])
            for protection in (prot, wide_protection(rng)):
                d, k = _assert_drop_is_exact(rows, pos, major, pcfg, protection)
                dropped += d
                kept += k
    assert dropped > 1_000 and kept > 1_000


def _boresight_case(ap: GeoPoint, azimuth_offset_deg: float = 0.0):
    """BASE_LINK aimed at ap (plus an offset), its compiled row and its full-walk budget."""
    rx = BASE_LINK.rx_location
    try:
        bearing = initial_bearing_deg(rx, ap)
    except CoincidentPoints:
        bearing = 0.0
    link = dataclasses.replace(BASE_LINK, azimuth_deg=(bearing + azimuth_offset_deg) % 360.0)
    rows = IncumbentDatabase(fs_links=(link,)).link_rows
    ((_, f_lo, positions, budget),) = walk_links(rows, ap, 0.0, PropagationConfig(), LIMIT, math.inf)
    return link, rows, f_lo, positions, budget


@pytest.mark.parametrize("ap", [GeoPoint(40.2, -100.0), GeoPoint(40.0, -100.0)], ids=["north", "on-receiver"])
def test_drop_at_the_main_lobe_raw_value(ap):
    link, rows, f_lo, positions, budget = _boresight_case(ap)
    assert budget.gain_dbi == link.max_gain_dbi
    # f_lo is the lowest of several distinct frequency terms, so a test at
    # any other channel moves the line.
    assert len({FREQ_LOSS[p] for p in positions}) > 1 and f_lo == min(FREQ_LOSS[p] for p in positions)
    raw = _raw(budget, f_lo, LIMIT, link.max_gain_dbi)
    walked = {}
    for ceiling in (math.nextafter(raw, -math.inf), raw, math.nextafter(raw, math.inf)):
        walked[ceiling] = list(walk_links(rows, ap, 0.0, PropagationConfig(), LIMIT, ceiling))
    # At the raw value and one ulp under it the link permits the ceiling; one
    # ulp over it the link binds on its lowest channel at exactly raw.
    assert walked[math.nextafter(raw, -math.inf)] == walked[raw] == []
    ((_, _, _, kept),) = walked[math.nextafter(raw, math.inf)]
    assert kept == budget
    ceiling = math.nextafter(raw, math.inf)
    caps = [ceiling] * len(FREQ_LOSS)
    kept.lower_caps(caps, positions, FREQ_LOSS, LIMIT)
    lowered = [p for p, cap in enumerate(caps) if cap != ceiling]
    assert lowered and all(FREQ_LOSS[p] == f_lo and caps[p] == raw for p in lowered)


def test_side_lobe_row_is_dropped_up_to_its_side_lobe_raw_value():
    # Off the beam the walk tests the row at its side-lobe gain: one ulp above
    # its main-lobe raw value, and at its side-lobe raw value itself, the row
    # permits the ceiling and is dropped; one ulp above its side-lobe raw value
    # it is kept and lowers its lowest channel's cap to exactly that value.
    ap = GeoPoint(40.2, -100.0)
    link, rows, f_lo, positions, budget = _boresight_case(ap, azimuth_offset_deg=90.0)
    assert budget.gain_dbi == link.max_gain_dbi - link.discrimination_db
    main_raw = _raw(budget, f_lo, LIMIT, link.max_gain_dbi)
    side_raw = _raw(budget, f_lo, LIMIT, budget.gain_dbi)
    assert main_raw < side_raw
    for ceiling in (math.nextafter(main_raw, math.inf), math.nextafter(side_raw, -math.inf), side_raw):
        assert list(walk_links(rows, ap, 0.0, PropagationConfig(), LIMIT, ceiling)) == []
    ceiling = math.nextafter(side_raw, math.inf)
    ((_, _, _, kept),) = walk_links(rows, ap, 0.0, PropagationConfig(), LIMIT, ceiling)
    assert kept == budget
    caps = [ceiling] * len(FREQ_LOSS)
    kept.lower_caps(caps, positions, FREQ_LOSS, LIMIT)
    lowered = [p for p, cap in enumerate(caps) if cap != ceiling]
    assert lowered and all(FREQ_LOSS[p] == f_lo and caps[p] == side_raw for p in lowered)


def test_harm_reports_links_that_no_grant_would_walk():
    # An AP far from every link: each grant walk drops every row, and harm
    # still reports every co-channel link.
    reported = 0
    for seed in range(100):
        db, pcfg, prot, aps = random_world(seed)
        rng = random.Random(f"harm-far:{seed}")
        far = destination_point(aps[0], rng.uniform(0.0, 360.0), rng.uniform(2_500_000.0, 4_000_000.0))
        pos = GeoPoint(far.lat_deg, far.lon_deg)
        walk = walk_links(db.link_rows, pos, 0.0, pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
        assert list(walk) == []
        world = World(database=db, propagation=pcfg, protection=prot)
        for row in db.link_rows:
            channel = CHANNELS[row[2][0]]
            rows, _ = assess_harm([("AP-FAR", pos, channel, 36.0)], world)
            want = [link.id for link in db.fs_links if constrains(link, channel)]
            assert [r.link_id for r in rows] == want and not any(r.violated for r in rows)
            reported += len(rows)
    assert reported > 100
