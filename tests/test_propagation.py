"""Path loss, antenna pattern, and the permissible-EIRP chain."""

import dataclasses
import math
import random
from types import SimpleNamespace

import pytest

from afcsim.channels import ChannelId, FrequencyRange, all_us_channels, center_frequency_mhz
from afcsim.errors import CoincidentPoints, DegenerateDistance
from afcsim.geo import GeoPoint, destination_point, haversine_distance, initial_bearing_deg
from afcsim.propagation import (
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    constrains,
    fspl_db,
    frequency_loss_db,
    i_over_n_db,
    incumbent_noise_floor_dbm,
    link_budget,
    max_permissible_eirp_dbm,
    off_axis_deg,
    path_loss_db,
    rx_gain_dbi,
)
from tests.conftest import AP_TRUE, FS_RX
from tests.worldgen import random_world


# fspl_db and path_loss_db as written before path loss was split into a
# distance term, a frequency term and a clutter term. The live functions and
# the per-link budgets must equal them bit for bit.


def fspl(d_m: float, f_mhz: float) -> float:
    return 32.45 + 20.0 * math.log10(d_m / 1000.0) + 20.0 * math.log10(f_mhz)


def reference_path_loss_db(distance_m: float, freq_mhz: float, cfg: PropagationConfig) -> float:
    if distance_m < 1.0:
        raise DegenerateDistance(f"distance {distance_m} m is below the 1 m floor")
    loss = fspl(distance_m, freq_mhz)
    if distance_m >= cfg.regime_threshold_m:
        loss += cfg.clutter_offset_db
    return loss


def test_split_path_loss_matches_the_unsplit_formula():
    freqs = [center_frequency_mhz(ch) for ch in all_us_channels()]
    assert len(freqs) == 76
    checked = 0
    for seed in range(500):  # every seed the worldgen corpus is used with
        db, pcfg, prot, aps = random_world(seed)
        threshold = pcfg.regime_threshold_m
        # The regime edge from both sides, the 1 m floor, and every AP-link distance.
        distances = [threshold, math.nextafter(threshold, 0.0), 1.0]
        distances += [max(1.0, haversine_distance(pos, link.rx_location)) for pos in aps for link in db.fs_links]
        link = db.fs_links[0]
        for d in distances:
            budget = link_budget(link, aps[0], d, pcfg)
            for f in freqs:
                want = reference_path_loss_db(d, f, pcfg)
                assert fspl_db(d, f) == fspl(d, f)
                assert path_loss_db(d, f, pcfg) == want
                assert budget.loss_db(frequency_loss_db(f)) == want
                checked += 1
        below_floor = math.nextafter(1.0, 0.0)
        for fn in (path_loss_db, reference_path_loss_db):
            with pytest.raises(DegenerateDistance):
                fn(below_floor, freqs[0], pcfg)
        with pytest.raises(DegenerateDistance):
            link_budget(link, aps[0], below_floor, pcfg)
    assert checked > 200_000


def test_fspl_spot_values():
    cfg = PropagationConfig(regime_threshold_m=1e9, clutter_offset_db=20.0)
    assert path_loss_db(100.0, 6000.0, cfg) == pytest.approx(88.013025, abs=1e-4)
    assert path_loss_db(1000.0, 6000.0, cfg) == pytest.approx(108.013025, abs=1e-4)
    assert path_loss_db(10_000.0, 6000.0, cfg) == pytest.approx(128.013025, abs=1e-4)


def test_clutter_regime_engages_at_threshold():
    cfg = PropagationConfig(regime_threshold_m=1000.0, clutter_offset_db=20.0)
    below = path_loss_db(999.999, 6000.0, cfg)
    at = path_loss_db(1000.0, 6000.0, cfg)
    assert below == pytest.approx(fspl(999.999, 6000.0), abs=1e-9)
    assert at == pytest.approx(fspl(1000.0, 6000.0) + 20.0, abs=1e-9)


def test_distance_floor_enforced():
    cfg = PropagationConfig()
    with pytest.raises(DegenerateDistance):
        path_loss_db(0.5, 6000.0, cfg)
    path_loss_db(1.0, 6000.0, cfg)  # the floor itself is fine


def test_noise_floor_values(fs_link):
    assert incumbent_noise_floor_dbm(fs_link) == pytest.approx(-95.98970004336019, abs=1e-9)
    wide = FsLink(
        id="W",
        rx_location=FS_RX,
        freq_range=FrequencyRange(6000.0, 6030.0),
        bandwidth_mhz=30.0,
        noise_figure_db=4.0,
        max_gain_dbi=30.0,
        azimuth_deg=0.0,
        beamwidth_deg=6.0,
        discrimination_db=25.0,
    )
    assert incumbent_noise_floor_dbm(wide) == pytest.approx(-95.228787, abs=1e-5)


def test_two_level_antenna_pattern(fs_link):
    # The AP fixture sits due south of the receiver; boresight points east.
    assert rx_gain_dbi(fs_link, AP_TRUE) == 5.0
    east = destination_point(FS_RX, 90.0, 5000.0)
    assert rx_gain_dbi(fs_link, east) == 30.0
    # Within half the beamwidth, inclusive: 3 degrees off boresight.
    edge = destination_point(FS_RX, 93.0, 5000.0)
    assert rx_gain_dbi(fs_link, edge) == 30.0
    outside = destination_point(FS_RX, 93.2, 5000.0)
    assert rx_gain_dbi(fs_link, outside) == 5.0


def test_rx_gain_is_boresight_when_coincident(fs_link):
    # No bearing exists from the receiver to its own position, so the main
    # beam is assumed whichever way the antenna points.
    assert rx_gain_dbi(fs_link, FS_RX) == 30.0
    assert rx_gain_dbi(dataclasses.replace(fs_link, azimuth_deg=270.0), FS_RX) == 30.0


def test_max_eirp_chain_reference_value(fs_link, propagation, protection):
    got = max_permissible_eirp_dbm(
        fs_link, AP_TRUE, ChannelId(20, 9), propagation, protection, distance_m=10_000.0
    )
    # Independently: noise + limit + FSPL(10 km, 5995 MHz) - 5 dBi.
    want = -95.98970004336019 - 6.0 + fspl(10_000.0, 5995.0) - 5.0
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(21.016083705337167, abs=1e-9)


def test_max_eirp_caps_at_regulatory_ceiling(fs_link, propagation, protection):
    got = max_permissible_eirp_dbm(
        fs_link, AP_TRUE, ChannelId(20, 9), propagation, protection, distance_m=5e6
    )
    assert got == 36.0


def test_max_eirp_unavailable_when_below_useful_minimum(fs_link, propagation, protection):
    got = max_permissible_eirp_dbm(
        fs_link, AP_TRUE, ChannelId(20, 9), propagation, protection, distance_m=5000.0
    )
    assert got is None


def test_max_eirp_boresight_fallback_when_coincident(fs_link, propagation, protection):
    # An AP on top of the receiver has no defined bearing; the chain must
    # then assume boresight gain, which lowers the grant by the full
    # discrimination relative to the off-axis case.
    permissive = ProtectionConfig(min_useful_eirp_dbm=-50.0)
    off_axis = max_permissible_eirp_dbm(
        fs_link, AP_TRUE, ChannelId(20, 9), propagation, permissive, distance_m=10_000.0
    )
    coincident = max_permissible_eirp_dbm(
        fs_link, FS_RX, ChannelId(20, 9), propagation, permissive, distance_m=10_000.0
    )
    assert coincident == pytest.approx(off_axis - 25.0, abs=1e-9)
    # Under the default useful minimum the same grant is withheld.
    assert (
        max_permissible_eirp_dbm(
            fs_link, FS_RX, ChannelId(20, 9), propagation, protection, distance_m=10_000.0
        )
        is None
    )


def test_i_over_n_reference_value(fs_link, propagation):
    got = i_over_n_db(
        fs_link, AP_TRUE, ChannelId(320, 1, 1), 36.0, propagation, distance_m=10_000.0
    )
    assert got == pytest.approx(8.82598667774215, abs=1e-9)
    # Granting exactly the permissible EIRP lands exactly on the limit.
    eirp = max_permissible_eirp_dbm(
        fs_link, AP_TRUE, ChannelId(20, 9), propagation,
        ProtectionConfig(), distance_m=10_000.0,
    )
    ratio = i_over_n_db(fs_link, AP_TRUE, ChannelId(20, 9), eirp, propagation, distance_m=10_000.0)
    assert ratio == pytest.approx(-6.0, abs=1e-9)


def test_i_over_n_boresight_fallback_when_coincident(fs_link, propagation):
    # The harm side of the chain assumes the main beam as well: an AP on the
    # receiver reads the full discrimination above the off-axis case.
    ch = ChannelId(20, 9)
    off_axis = i_over_n_db(fs_link, AP_TRUE, ch, 30.0, propagation, distance_m=10_000.0)
    coincident = i_over_n_db(fs_link, FS_RX, ch, 30.0, propagation, distance_m=10_000.0)
    assert coincident == pytest.approx(off_axis + 25.0, abs=1e-9)


# The permissible-EIRP and I/N chains as written when each caught the
# coincident-point fallback itself and computed every term per call, over
# the unsplit path loss above; the public functions must equal them.


def reference_gain(link, ap_pos):
    try:
        bearing = initial_bearing_deg(link.rx_location, ap_pos)
    except CoincidentPoints:
        return link.max_gain_dbi
    if off_axis_deg(bearing, link.azimuth_deg) <= link.beamwidth_deg / 2.0:
        return link.max_gain_dbi
    return link.max_gain_dbi - link.discrimination_db


def reference_max_permissible_eirp_dbm(link, ap_pos, ch, pcfg, prot, distance_m=None):
    if distance_m is None:
        distance_m = haversine_distance(ap_pos, link.rx_location)
    gain = reference_gain(link, ap_pos)
    noise = incumbent_noise_floor_dbm(link)
    loss = reference_path_loss_db(distance_m, center_frequency_mhz(ch), pcfg)
    raw = (noise + prot.i_over_n_limit_db) + loss - gain
    capped = min(raw, prot.regulatory_max_eirp_dbm)
    if capped < prot.min_useful_eirp_dbm:
        return None
    return capped


def reference_i_over_n_db(link, ap_pos, ch, eirp_dbm, pcfg, distance_m=None):
    if distance_m is None:
        distance_m = haversine_distance(ap_pos, link.rx_location)
    gain = reference_gain(link, ap_pos)
    loss = reference_path_loss_db(distance_m, center_frequency_mhz(ch), pcfg)
    return eirp_dbm - loss + gain - incumbent_noise_floor_dbm(link)


def _outcome(fn, *args, **kwargs):
    # An AP on a receiver at the geometric distance is below the 1 m floor.
    try:
        return fn(*args, **kwargs)
    except DegenerateDistance:
        return DegenerateDistance


def test_chain_matches_reference_over_worldgen():
    channels = all_us_channels()
    evaluations = 0
    for seed in range(300):
        db, pcfg, prot, aps = random_world(seed)
        rng = random.Random(f"chain:{seed}")
        if seed % 2:
            # Wide enough that neither the ceiling nor the useful minimum
            # hides the raw value. ProtectionConfig refuses a ceiling above
            # 36 dBm, so the chain reads these fields from a plain namespace.
            prot = SimpleNamespace(
                i_over_n_limit_db=rng.uniform(-12.0, 0.0), regulatory_max_eirp_dbm=300.0, min_useful_eirp_dbm=-300.0
            )
        # Every receiver doubles as an AP position, where the bearing is undefined.
        receivers = [GeoPoint(link.rx_location.lat_deg, link.rx_location.lon_deg) for link in db.fs_links]
        for link in db.fs_links:
            for pos in list(aps) + receivers:
                distance = haversine_distance(pos, link.rx_location)
                contracted = max(1.0, distance - rng.uniform(0.0, 30_000.0))
                for ch in rng.sample(channels, 6):
                    for d in (None, contracted):
                        assert _outcome(max_permissible_eirp_dbm, link, pos, ch, pcfg, prot, d) == _outcome(
                            reference_max_permissible_eirp_dbm, link, pos, ch, pcfg, prot, d
                        )
                        for eirp in (36.0, rng.uniform(-10.0, 36.0)):
                            assert _outcome(i_over_n_db, link, pos, ch, eirp, pcfg, d) == _outcome(
                                reference_i_over_n_db, link, pos, ch, eirp, pcfg, d
                            )
                        evaluations += 3
    assert evaluations > 50_000


def test_constrains_uses_span_overlap(fs_link):
    assert constrains(fs_link, ChannelId(20, 9))  # 5985-6005 vs 5990-6004
    assert not constrains(fs_link, ChannelId(20, 13))  # 6005-6025: edge only
    assert constrains(fs_link, ChannelId(320, 1, 1))
    assert not constrains(fs_link, ChannelId(320, 33, 2))  # starts at 6105


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: PropagationConfig(regime_threshold_m=v),
        lambda v: PropagationConfig(clutter_offset_db=v),
        lambda v: ProtectionConfig(i_over_n_limit_db=v),
        lambda v: ProtectionConfig(regulatory_max_eirp_dbm=v),
        lambda v: ProtectionConfig(min_useful_eirp_dbm=v),
    ],
    ids=["regime-threshold", "clutter-offset", "i-over-n-limit", "regulatory-max", "min-useful"],
)
def test_non_finite_config_field_rejected(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(regime_threshold_m=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(clutter_offset_db=-1.0)
    with pytest.raises(ValueError):
        ProtectionConfig(regulatory_max_eirp_dbm=20.0, min_useful_eirp_dbm=21.0)
    with pytest.raises(ValueError):
        FsLink(
            id="bad",
            rx_location=FS_RX,
            freq_range=FrequencyRange(6000.0, 6020.0),
            bandwidth_mhz=20.0,
            noise_figure_db=5.0,
            max_gain_dbi=30.0,
            azimuth_deg=360.0,  # must be [0, 360)
            beamwidth_deg=6.0,
            discrimination_db=25.0,
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("bandwidth_mhz", math.inf),
        ("bandwidth_mhz", math.nan),
        ("noise_figure_db", math.inf),
        ("noise_figure_db", math.nan),
        ("max_gain_dbi", -math.inf),
        ("max_gain_dbi", math.inf),
        ("max_gain_dbi", math.nan),
        ("discrimination_db", math.inf),
        ("discrimination_db", math.nan),
        ("azimuth_deg", math.nan),
        ("beamwidth_deg", math.nan),
    ],
)
def test_non_finite_link_field_rejected(fs_link, field, value):
    # Such a link next to the AP used to be granted every channel at 36 dBm.
    with pytest.raises(ValueError):
        dataclasses.replace(fs_link, **{field: value})
