"""Path loss, antenna pattern, and the permissible-EIRP chain."""

import dataclasses
import math
import random
from types import SimpleNamespace

import pytest

from afcsim.channels import ChannelId, FrequencyRange, all_us_channels, center_frequency_mhz
from afcsim.geo import GeoPoint, destination_point, haversine_distance
from afcsim.propagation import (
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    constrains,
    fspl_db,
    frequency_loss_db,
    i_over_n_db,
    incumbent_noise_floor_dbm,
    max_permissible_eirp_dbm,
    _one_row_budget,
)
from tests.conftest import AP_TRUE, FS_RX
from tests.reference_chain import (
    DegenerateDistance,
    fspl,
    link_budget,
    reference_i_over_n_db,
    reference_max_permissible_eirp_dbm,
    reference_path_loss_db,
)
from tests.worldgen import random_world

# 10 km due south of the receiver, whose beam points east: off boresight, at the
# distance of the chain's reference values.
AP_10_KM = destination_point(FS_RX, 180.0, 10_000.0)
# Half a metre south of the receiver, off boresight, at the 1 m floor.
AP_NEAR = destination_point(FS_RX, 180.0, 0.5)


def walked_gain_dbi(link, ap_pos):
    """The receive gain in the budget that walk_links yields toward ap_pos."""
    return _one_row_budget(link, ap_pos, PropagationConfig()).gain_dbi


def walked_loss_db(link, ap_pos, pcfg, freq_mhz):
    """The product's two-regime path loss toward ap_pos at freq_mhz, in fspl_db's order."""
    distance, clutter, _, _ = _one_row_budget(link, ap_pos, pcfg)
    return (distance + frequency_loss_db(freq_mhz)) + clutter


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
                assert budget.loss_db(frequency_loss_db(f)) == want
                checked += 1
        below_floor = math.nextafter(1.0, 0.0)
        with pytest.raises(DegenerateDistance):
            reference_path_loss_db(below_floor, freqs[0], pcfg)
        with pytest.raises(DegenerateDistance):
            link_budget(link, aps[0], below_floor, pcfg)
    assert checked > 200_000


def test_fspl_spot_values():
    assert fspl_db(100.0, 6000.0) == pytest.approx(88.013025, abs=1e-4)
    assert fspl_db(1000.0, 6000.0) == pytest.approx(108.013025, abs=1e-4)
    assert fspl_db(10_000.0, 6000.0) == pytest.approx(128.013025, abs=1e-4)


def test_clutter_regime_engages_at_threshold(fs_link):
    # The AP about 1 km from the receiver, and the threshold one ulp beyond
    # that distance and exactly at it.
    ap = destination_point(FS_RX, 180.0, 1000.0)
    d = haversine_distance(ap, FS_RX)
    below = walked_loss_db(fs_link, ap, PropagationConfig(math.nextafter(d, math.inf), 20.0), 6000.0)
    at = walked_loss_db(fs_link, ap, PropagationConfig(d, 20.0), 6000.0)
    assert below == pytest.approx(fspl(d, 6000.0), abs=1e-9)
    assert at == pytest.approx(fspl(d, 6000.0) + 20.0, abs=1e-9)


def test_distance_floor_enforced(fs_link):
    # Under 1 m, and on the receiver itself, path loss is taken at the floor.
    cfg = PropagationConfig()
    for ap in (AP_NEAR, FS_RX, destination_point(FS_RX, 90.0, 1e-6)):
        assert haversine_distance(ap, FS_RX) < 1.0
        assert walked_loss_db(fs_link, ap, cfg, 6000.0) == fspl(1.0, 6000.0)


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
    assert walked_gain_dbi(fs_link, AP_TRUE) == 5.0
    east = destination_point(FS_RX, 90.0, 5000.0)
    assert walked_gain_dbi(fs_link, east) == 30.0
    # Within half the beamwidth, inclusive: 3 degrees off boresight.
    edge = destination_point(FS_RX, 93.0, 5000.0)
    assert walked_gain_dbi(fs_link, edge) == 30.0
    outside = destination_point(FS_RX, 93.2, 5000.0)
    assert walked_gain_dbi(fs_link, outside) == 5.0


def test_rx_gain_is_boresight_when_coincident(fs_link):
    # No bearing exists from the receiver to its own position, so the main
    # beam is assumed whichever way the antenna points.
    assert walked_gain_dbi(fs_link, FS_RX) == 30.0
    assert walked_gain_dbi(dataclasses.replace(fs_link, azimuth_deg=270.0), FS_RX) == 30.0


def test_max_eirp_chain_reference_value(fs_link, propagation, protection):
    got = max_permissible_eirp_dbm(fs_link, AP_10_KM, ChannelId(20, 9), propagation, protection)
    # Independently: noise + limit + FSPL(10 km, 5995 MHz) - 5 dBi.
    want = -95.98970004336019 - 6.0 + fspl(10_000.0, 5995.0) - 5.0
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(21.016083705337167, abs=1e-9)


def test_max_eirp_caps_at_regulatory_ceiling(fs_link, propagation, protection):
    far = destination_point(FS_RX, 180.0, 5e6)
    got = max_permissible_eirp_dbm(fs_link, far, ChannelId(20, 9), propagation, protection)
    assert got == 36.0


def test_max_eirp_unavailable_when_below_useful_minimum(fs_link, propagation, protection):
    near = destination_point(FS_RX, 180.0, 5000.0)
    got = max_permissible_eirp_dbm(fs_link, near, ChannelId(20, 9), propagation, protection)
    assert got is None


def test_max_eirp_boresight_fallback_when_coincident(fs_link, propagation, protection):
    # An AP on top of the receiver has no defined bearing; the chain must
    # then assume boresight gain, which lowers the grant by the full
    # discrimination relative to the off-axis case. Both APs are at the 1 m floor.
    permissive = ProtectionConfig(min_useful_eirp_dbm=-100.0)
    off_axis = max_permissible_eirp_dbm(fs_link, AP_NEAR, ChannelId(20, 9), propagation, permissive)
    coincident = max_permissible_eirp_dbm(fs_link, FS_RX, ChannelId(20, 9), propagation, permissive)
    assert coincident == pytest.approx(off_axis - 25.0, abs=1e-9)
    # Under the default useful minimum the same grant is withheld.
    assert max_permissible_eirp_dbm(fs_link, FS_RX, ChannelId(20, 9), propagation, protection) is None


def test_i_over_n_reference_value(fs_link, propagation):
    got = i_over_n_db(fs_link, AP_10_KM, ChannelId(320, 1, 1), 36.0, propagation)
    assert got == pytest.approx(8.82598667774215, abs=1e-9)
    # Granting exactly the permissible EIRP lands exactly on the limit.
    eirp = max_permissible_eirp_dbm(fs_link, AP_10_KM, ChannelId(20, 9), propagation, ProtectionConfig())
    ratio = i_over_n_db(fs_link, AP_10_KM, ChannelId(20, 9), eirp, propagation)
    assert ratio == pytest.approx(-6.0, abs=1e-9)


def test_i_over_n_boresight_fallback_when_coincident(fs_link, propagation):
    # The harm side of the chain assumes the main beam as well: an AP on the
    # receiver reads the full discrimination above the off-axis case, both at
    # the 1 m floor.
    ch = ChannelId(20, 9)
    off_axis = i_over_n_db(fs_link, AP_NEAR, ch, 30.0, propagation)
    coincident = i_over_n_db(fs_link, FS_RX, ch, 30.0, propagation)
    assert coincident == pytest.approx(off_axis + 25.0, abs=1e-9)


# The public functions are one-row walks; they must equal the unsplit
# reference chain at the distance a walk takes, max(1 m, haversine).


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
                d = max(1.0, haversine_distance(pos, link.rx_location))
                for ch in rng.sample(channels, 6):
                    assert max_permissible_eirp_dbm(link, pos, ch, pcfg, prot) == reference_max_permissible_eirp_dbm(
                        link, pos, ch, pcfg, prot, d
                    )
                    for eirp in (36.0, rng.uniform(-10.0, 36.0)):
                        assert i_over_n_db(link, pos, ch, eirp, pcfg) == reference_i_over_n_db(
                            link, pos, ch, eirp, pcfg, d
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
