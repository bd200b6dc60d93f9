"""compute_availability equals the per-channel x per-link reference loop exactly.

The reference below tests every authorized channel against every link, as
availability was computed before the co-channel index. Grants are compared
with ==, so any change to the numeric chain or to the pruning shows up as a
failure rather than as a tolerance question.
"""

import dataclasses
import math
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from afcsim.channels import (
    BAND_HIGH_MHZ,
    BAND_LOW_MHZ,
    CHANNELS as _CHANNELS,
    ChannelId,
    FrequencyRange,
    all_us_channels,
    channel_positions as _channel_positions,
    channel_span,
    overlaps,
    us_standard_power_channels,
)
from afcsim.errors import UnsupportedBandwidth
from afcsim.geo import Geofence, GeoPoint, LocationEllipse, destination_point, haversine_distance, within_geofence
from afcsim.propagation import (
    PropagationConfig,
    ProtectionConfig,
    constrains,
    keep_out_cells,
    max_permissible_eirp_dbm,
)
from afcsim.server import (
    CHANNEL_POSITION,
    INDEX_MIN_ROWS,
    ChannelGrant,
    ExclusionZone,
    IncumbentDatabase,
    compute_availability,
    quantize_grant_dbm,
)
from tests.reference_chain import reference_max_permissible_eirp_dbm
from tests.worldgen import padded, random_world, wide_protection

ALL_BANDWIDTHS = (20, 40, 80, 160, 320)


def reference_availability(loc, bandwidths, db, pcfg, prot):
    grants = []
    for bw in sorted(set(bandwidths)):
        for ch in us_standard_power_channels(bw):
            span = channel_span(ch)
            if any(
                overlaps(span, z.banned) and within_geofence(loc.center, z.zone)
                for z in db.exclusion_zones
            ):
                continue
            cap = prot.regulatory_max_eirp_dbm
            available = True
            for link in db.fs_links:
                if not constrains(link, ch):
                    continue
                distance = haversine_distance(loc.center, link.rx_location)
                effective = max(1.0, distance - loc.major_axis_m)
                eirp = reference_max_permissible_eirp_dbm(
                    link, loc.center, ch, pcfg, prot, distance_m=effective
                )
                if eirp is None:
                    available = False
                    break
                cap = min(cap, eirp)
            if not available:
                continue
            quantized = quantize_grant_dbm(cap)
            if quantized < prot.min_useful_eirp_dbm:
                continue
            grants.append(ChannelGrant(channel=ch, max_eirp_dbm=quantized))
    return grants


def _ellipse(rng: random.Random, center: GeoPoint) -> LocationEllipse:
    # Axes from a clean fix up to beyond the whole world, so the 1 m
    # contraction floor is reached too.
    major = rng.choice([0.0, rng.uniform(0.0, 300.0), rng.uniform(0.0, 60_000.0)])
    return LocationEllipse(
        center=center,
        major_axis_m=major,
        minor_axis_m=rng.uniform(0.0, major),
        orientation_deg=rng.uniform(0.0, 179.9),
        gps_time=0.0,
    )


def _bandwidths(rng: random.Random) -> tuple[int, ...]:
    # Unordered and with repeats, as requests may carry them.
    return tuple(rng.choice(ALL_BANDWIDTHS) for _ in range(rng.randint(1, 7)))


def _zones(rng: random.Random, aps) -> tuple[ExclusionZone, ...]:
    zones = []
    for _ in range(rng.randint(1, 3)):
        center = destination_point(rng.choice(aps), rng.uniform(0.0, 360.0), rng.uniform(0.0, 20_000.0))
        low = rng.uniform(5925.0, 7000.0)
        zones.append(
            ExclusionZone(
                zone=Geofence(GeoPoint(center.lat_deg, center.lon_deg), rng.uniform(500.0, 15_000.0)),
                banned=FrequencyRange(low, min(low + rng.uniform(5.0, 300.0), 7125.0)),
            )
        )
    return tuple(zones)


def _assert_matches(rng, db, pcfg, prot, aps):
    for pos in aps:
        loc = _ellipse(rng, pos)
        for bandwidths in (ALL_BANDWIDTHS, _bandwidths(rng)):
            assert compute_availability(loc, bandwidths, db, pcfg, prot) == reference_availability(
                loc, bandwidths, db, pcfg, prot
            )


def test_matches_reference_over_worldgen():
    for seed in range(500):
        db, pcfg, prot, aps = random_world(seed)
        rng = random.Random(f"availability:{seed}")
        _assert_matches(rng, db, pcfg, prot, aps)
        _assert_matches(rng, db, pcfg, wide_protection(rng), aps)


def test_matches_reference_with_exclusion_zones():
    for seed in range(150):
        db, pcfg, prot, aps = random_world(seed, n_links_max=40)
        rng = random.Random(f"availability-zones:{seed}")
        db = dataclasses.replace(db, exclusion_zones=_zones(rng, aps))
        _assert_matches(rng, db, pcfg, prot, aps)
        _assert_matches(rng, db, pcfg, wide_protection(rng), aps)


def _overlapping_positions(r):
    """The positions of the channels whose spans overlap r, by channels.overlaps per channel."""
    return tuple(p for p, ch in enumerate(_CHANNELS) if overlaps(channel_span(ch), r))


def test_one_range_to_channels_rule_is_the_overlap_rule():
    # Links and exclusion zones both map a range to channels by bisecting the
    # band edges. Ranges with both edges on channel edges, one ulp either
    # side of them, the whole band and random ranges.
    edges = sorted({e for ch in _CHANNELS for e in (channel_span(ch).low_mhz, channel_span(ch).high_mhz)})
    points = sorted(
        {
            x
            for e in edges + [BAND_LOW_MHZ, BAND_HIGH_MHZ]
            for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))
            if BAND_LOW_MHZ <= x <= BAND_HIGH_MHZ
        }
    )
    ranges = [FrequencyRange(lo, hi) for i, lo in enumerate(points) for hi in points[i + 1:]]
    ranges.append(FrequencyRange(BAND_LOW_MHZ, BAND_HIGH_MHZ))
    rng = random.Random("channel-positions")
    for _ in range(2_000):
        lo, hi = sorted(rng.uniform(BAND_LOW_MHZ, BAND_HIGH_MHZ) for _ in range(2))
        if lo < hi:
            ranges.append(FrequencyRange(lo, hi))
    touching = 0
    for r in ranges:
        want = _overlapping_positions(r)
        assert _channel_positions(r) == want, r
        touching += any(channel_span(ch).high_mhz == r.low_mhz for ch in _CHANNELS)
    assert len(_channel_positions(FrequencyRange(BAND_LOW_MHZ, BAND_HIGH_MHZ))) == len(_CHANNELS)
    assert touching > 1_000


@pytest.mark.parametrize(
    "banned, spared, barred",
    [
        # Ends on the low edge of 20 MHz channel 1 (5945-5965 MHz).
        (FrequencyRange(BAND_LOW_MHZ, 5945.0), ChannelId(20, 1), None),
        # Starts on its high edge, and overlaps channel 5 (5965-5985 MHz).
        (FrequencyRange(5965.0, 5970.0), ChannelId(20, 1), ChannelId(20, 5)),
    ],
    ids=["low-edge", "high-edge"],
)
def test_zone_touching_a_channel_edge_spares_it(banned, spared, barred):
    # Overlap is open-interval: a zone whose banned range only shares an edge
    # with a channel leaves that channel's cap, and its grant, alone.
    for seed in range(20):
        db, pcfg, prot, aps = random_world(seed, n_links_max=10)
        zone = ExclusionZone(zone=Geofence(aps[0], 1_000.0), banned=banned)
        db = dataclasses.replace(db, exclusion_zones=(zone,))
        for links in (db.fs_links, ()):
            world = dataclasses.replace(db, fs_links=links)
            loc = LocationEllipse(aps[0], 0.0, 0.0, 0.0, 0.0)
            grants = compute_availability(loc, ALL_BANDWIDTHS, world, pcfg, prot)
            assert grants == reference_availability(loc, ALL_BANDWIDTHS, world, pcfg, prot)
            granted = {g.channel for g in grants}
            assert barred not in granted
            if not links:
                assert spared in granted
                assert len(granted) == len(_CHANNELS) - len(_channel_positions(banned))


def _co_channels(link):
    """The link's channels, lowest center frequency first."""
    chs = [ch for bw in ALL_BANDWIDTHS for ch in us_standard_power_channels(bw) if constrains(link, ch)]
    return sorted(chs, key=lambda ch: channel_span(ch).low_mhz + channel_span(ch).high_mhz)


def test_link_exactly_at_the_ceiling_on_its_lowest_channel():
    # The ceiling is set to the link's raw permissible EIRP on its lowest
    # channel, and one ulp above and below it, so the link sits exactly on,
    # just under and just over the line at which it stops binding.
    cases = 0
    for seed in range(200):
        db, pcfg, _, aps = random_world(seed, n_links_max=8)
        loc = LocationEllipse(aps[0], 0.0, 0.0, 0.0, 0.0)
        # ProtectionConfig refuses a ceiling above 36 dBm, so the uncapped
        # chain reads its fields from a plain namespace.
        open_sky = SimpleNamespace(i_over_n_limit_db=-6.0, regulatory_max_eirp_dbm=1000.0, min_useful_eirp_dbm=-1000.0)
        for link in db.fs_links:
            chs = _co_channels(link)
            if not chs:
                continue
            raw = max_permissible_eirp_dbm(link, loc.center, chs[0], pcfg, open_sky)
            if not -60.0 < raw <= 36.0:
                continue
            for ceiling in (raw, math.nextafter(raw, -math.inf), math.nextafter(raw, math.inf)):
                if ceiling > 36.0:
                    continue
                prot = ProtectionConfig(-6.0, ceiling, ceiling - 90.0)
                if ceiling <= raw:
                    # At the ceiling on its lowest channel, so on every channel it overlaps.
                    for ch in chs:
                        assert max_permissible_eirp_dbm(link, loc.center, ch, pcfg, prot) == ceiling
                assert compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot) == reference_availability(
                    loc, ALL_BANDWIDTHS, db, pcfg, prot
                )
                cases += 1
    assert cases > 300


def test_link_exactly_at_the_useful_minimum():
    # A channel is withheld only where the link permits less than the useful
    # minimum: at it, the permissible EIRP stands; one ulp over it, None.
    db, pcfg, _, aps = random_world(3, n_links_max=8)
    loc = LocationEllipse(aps[0], 0.0, 0.0, 0.0, 0.0)
    open_sky = SimpleNamespace(i_over_n_limit_db=-6.0, regulatory_max_eirp_dbm=1000.0, min_useful_eirp_dbm=-1000.0)
    cases = 0
    for link in db.fs_links:
        for ch in _co_channels(link):
            raw = max_permissible_eirp_dbm(link, loc.center, ch, pcfg, open_sky)
            if not -900.0 < raw < 36.0:
                continue
            at = ProtectionConfig(-6.0, 36.0, raw)
            over = ProtectionConfig(-6.0, 36.0, math.nextafter(raw, math.inf))
            assert max_permissible_eirp_dbm(link, loc.center, ch, pcfg, at) == raw
            assert max_permissible_eirp_dbm(link, loc.center, ch, pcfg, over) is None
            cases += 1
    assert cases > 0


def test_ceiling_quantized_below_the_useful_minimum_grants_nothing_unbound():
    db, pcfg, _, aps = random_world(7, n_links_max=10)
    loc = LocationEllipse(aps[0], 0.0, 0.0, 0.0, 0.0)
    # 21.005 floors to 21.00 on the wire, under the 21.001 useful minimum.
    prot = ProtectionConfig(-6.0, 21.005, 21.001)
    grants = compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)
    assert grants == reference_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot) == []
    assert compute_availability(loc, ALL_BANDWIDTHS, IncumbentDatabase(), pcfg, prot) == []


def _without_beam_lists(cells):
    """The keep-out cells of propagation.keep_out_cells less the main-beam lists that inquiries build in them."""
    return [cell[:-1] for cell in cells.cells], cells.keys, cells.reach, cells.side_reach


def test_two_ceilings_in_one_process():
    # The world is padded with far links to the size that builds keep-out
    # cells; the padded world grants what the world alone grants.
    world, pcfg, _, aps = random_world(2, n_links_max=10)
    db = padded(world, aps[0])
    loc = LocationEllipse(aps[0], 50.0, 10.0, 0.0, 0.0)
    high, low = ProtectionConfig(), ProtectionConfig(regulatory_max_eirp_dbm=30.004)
    # A second propagation model on the same database, with the radii of pure FSPL.
    fspl = PropagationConfig(regime_threshold_m=pcfg.regime_threshold_m, clutter_offset_db=0.0)
    for prot, ceiling in ((high, 36.0), (low, 30.0), (high, 36.0), (low, 30.0)):
        for model in (pcfg, fspl):
            grants = compute_availability(loc, ALL_BANDWIDTHS, db, model, prot)
            assert grants == reference_availability(loc, ALL_BANDWIDTHS, world, model, prot)
            assert max(g.max_eirp_dbm for g in grants) == ceiling
        unbound = compute_availability(loc, ALL_BANDWIDTHS, IncumbentDatabase(), pcfg, prot)
        assert [g.max_eirp_dbm for g in unbound] == [ceiling] * 76
        # Grants at the ceiling are built once per ceiling and shared by requests.
        again = compute_availability(loc, ALL_BANDWIDTHS, IncumbentDatabase(), pcfg, prot)
        assert all(a is b for a, b in zip(unbound, again))
    # The keep-out cells are built once per (propagation, limit, ceiling).
    cache = db.keep_out_cells
    assert set(cache) == {
        (model, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm) for model in (pcfg, fspl) for prot in (high, low)
    }
    for (model, limit, ceiling), cells in cache.items():
        assert _without_beam_lists(cells) == _without_beam_lists(keep_out_cells(db.link_rows, model, limit, ceiling))
    assert len({tuple(cell[3] for cell in cells.cells) for cells in cache.values()}) == 4
    compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, high)
    assert db.keep_out_cells is cache and len(cache) == 4


def test_useful_minimums_share_keep_out_cells():
    # The cells depend on the propagation model, the limit and the ceiling, not on the useful minimum.
    world, pcfg, prot, aps = random_world(2, n_links_max=10)
    db = padded(world, aps[0])
    loc = LocationEllipse(aps[0], 50.0, 10.0, 0.0, 0.0)
    for useful in (21.0, 25.0, 21.0):
        other = ProtectionConfig(prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm, useful)
        assert compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, other) == reference_availability(
            loc, ALL_BANDWIDTHS, world, pcfg, other
        )
    assert list(db.keep_out_cells) == [(pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)]


def test_a_database_under_index_min_rows_is_walked_whole():
    # Below INDEX_MIN_ROWS compiled rows compute_availability walks every row
    # and builds no keep-out cells; from INDEX_MIN_ROWS on it builds them.
    # The gate counts rows, not links: links that overlap no authorized
    # channel (here 6430-6520 MHz, in UNII-6) compile to no row.
    world, pcfg, prot, aps = random_world(11, n_links_max=60)
    rowed = tuple(world.fs_links[row[0]] for row in world.link_rows)
    assert len(rowed) > INDEX_MIN_ROWS
    unauthorized = tuple(
        dataclasses.replace(link, id=f"{link.id}-U6", freq_range=FrequencyRange(6430.0, 6520.0)) for link in rowed
    )
    many_links = rowed[: INDEX_MIN_ROWS - 1] + unauthorized
    assert len(many_links) >= INDEX_MIN_ROWS
    rng = random.Random("availability-gate")
    key = (pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
    for links, indexed in ((rowed[: INDEX_MIN_ROWS - 1], False), (many_links, False), (rowed[:INDEX_MIN_ROWS], True)):
        db = IncumbentDatabase(fs_links=links)
        assert len(db.link_rows) == INDEX_MIN_ROWS - 1 + indexed
        for pos in aps:
            loc = _ellipse(rng, pos)
            assert compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot) == reference_availability(
                loc, ALL_BANDWIDTHS, db, pcfg, prot
            )
        assert ("keep_out_cells" in vars(db)) == indexed
        if indexed:
            assert list(db.keep_out_cells) == [key]


def test_matches_reference_at_the_receiver():
    # An AP on top of a receiver has no bearing to it: boresight gain and
    # the 1 m floor both apply.
    for seed in range(50):
        db, pcfg, prot, _ = random_world(seed, n_links_max=10)
        rng = random.Random(f"availability-rx:{seed}")
        rx = db.fs_links[0].rx_location
        _assert_matches(rng, db, pcfg, prot, [GeoPoint(rx.lat_deg, rx.lon_deg)])


def test_index_lists_constraining_links_in_database_order():
    # assess_harm takes a channel's links as the compiled rows whose channel
    # positions hold that channel's position.
    db, _, _, _ = random_world(3, n_links_max=40)
    for bw in ALL_BANDWIDTHS:
        for ch in us_standard_power_channels(bw):
            want = tuple(i for i, link in enumerate(db.fs_links) if constrains(link, ch))
            p = CHANNEL_POSITION[ch]
            assert tuple(row[0] for row in db.link_rows if p in row[2]) == want


def test_every_constructible_channel_is_indexed():
    # assess_harm looks any channel an AP transmits on up in the position map,
    # and differential_compare orders channels by it, in grant order.
    built = set()
    for bw in ALL_BANDWIDTHS:
        for cfi in range(-8, 240):
            for variant in (None, 1, 2):
                try:
                    built.add(ChannelId(bw, cfi, variant))
                except ValueError:
                    pass
    assert built == set(CHANNEL_POSITION)
    assert list(CHANNEL_POSITION) == all_us_channels()
    assert list(CHANNEL_POSITION.values()) == list(range(len(built)))


def test_replaced_database_gets_fresh_index():
    world, pcfg, prot, aps = random_world(11, n_links_max=10)
    db = padded(world, aps[0])
    loc = LocationEllipse(aps[0], 0.0, 0.0, 0.0, 0.0)
    before = compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)
    assert before == reference_availability(loc, ALL_BANDWIDTHS, world, pcfg, prot)
    assert before  # the index of db is now built
    # A receiver on top of the AP across the whole band withholds everything.
    blocker = dataclasses.replace(
        db.fs_links[0],
        id="BLOCKER",
        rx_location=GeoPoint(aps[0].lat_deg, aps[0].lon_deg),
        freq_range=FrequencyRange(5925.0, 7125.0),
    )
    grown = dataclasses.replace(db, fs_links=db.fs_links + (blocker,))
    # The keep-out cells of db were built by the first inquiry; grown starts without.
    key = (pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)
    assert list(db.keep_out_cells) == [key] and "keep_out_cells" not in vars(grown)
    assert compute_availability(loc, ALL_BANDWIDTHS, grown, pcfg, prot) == []
    assert grown.keep_out_cells is not db.keep_out_cells
    assert sum(len(cell[5]) for cell in grown.keep_out_cells[key].cells) == len(db.link_rows) + 1
    assert compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot) == before
    # A database of no rows is walked whole: it builds no cells.
    emptied = dataclasses.replace(grown, fs_links=())
    assert len(compute_availability(loc, ALL_BANDWIDTHS, emptied, pcfg, prot)) == 76
    assert "keep_out_cells" not in vars(emptied)


def test_threads_share_a_first_use_index():
    # The HTTP service answers on several threads, which may all reach a new
    # database's index before it exists, and race to build and grow the
    # main-beam list of each AP cell. The receivers are spread over 4 x 4
    # degrees, and the APs stand in several cells, with and without rows,
    # each asked with a small and then a larger major axis. Far links pad the
    # world to the size that builds keep-out cells.
    db, pcfg, prot, aps = random_world(5, n_links_max=40)
    rng = random.Random("availability-threads")
    lat, lon = aps[0].lat_deg, aps[0].lon_deg
    spread = tuple(
        dataclasses.replace(
            link,
            rx_location=GeoPoint(lat + rng.uniform(-2.0, 2.0), lon + rng.uniform(-2.0, 2.0)),
            beamwidth_deg=rng.uniform(1.0, 10.0),
        )
        for link in db.fs_links
    )
    world = IncumbentDatabase(fs_links=spread)
    db = padded(world, aps[0])
    centers = [GeoPoint(lat + rng.uniform(-2.5, 2.5), lon + rng.uniform(-2.5, 2.5)) for _ in range(8)]
    assert len({(math.floor(p.lon_deg), math.floor(p.lat_deg)) for p in centers}) >= 4
    locs = [LocationEllipse(p, major, 10.0, 0.0, 0.0) for major in (20.0, 3000.0) for p in centers]
    want = [reference_availability(loc, ALL_BANDWIDTHS, world, pcfg, prot) for loc in locs]
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def answer(k: int):
        order = list(range(len(locs)))
        random.Random(k).shuffle(order)
        results[k] = {i: compute_availability(locs[i], ALL_BANDWIDTHS, db, pcfg, prot) for i in order}

    try:
        threads = [threading.Thread(target=answer, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [[results[k][i] for i in range(len(locs))] for k in range(8)] == [want] * 8
    assert list(db.keep_out_cells) == [(pcfg, prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm)]


def test_unsupported_bandwidth_rejected():
    db, pcfg, prot, aps = random_world(0)
    with pytest.raises(UnsupportedBandwidth):
        compute_availability(LocationEllipse(aps[0], 0.0, 0.0, 0.0, 0.0), (20, 30), db, pcfg, prot)
