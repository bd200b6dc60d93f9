"""Geofence and group-consistency spoofing detectors."""

import math
import random

import pytest

from afcsim import detection
from afcsim.detection import geofence_check, group_consistency_check
from afcsim.errors import InsufficientGroup
from afcsim.geo import Geofence, GeoPoint, destination_point, haversine_distance
from tests.check_group_scale import group, pairs_measured
from tests.reference_group import reference_group_check

CENTER = GeoPoint(40.7934, -77.86)
FENCE = Geofence(CENTER, 100.0)


def test_geofence_inside_is_quiet():
    v = geofence_check(destination_point(CENTER, 30.0, 40.0), FENCE)
    assert not v.alarm
    assert v.score_m == 0.0


def test_geofence_rim_is_still_inside():
    rim = destination_point(CENTER, 30.0, 100.0)
    fence = Geofence(CENTER, haversine_distance(rim, CENTER))
    v = geofence_check(rim, fence)
    assert not v.alarm
    assert v.score_m == 0.0


def test_geofence_breach_score_is_distance_minus_radius():
    spoofed = GeoPoint(30.086965, -101.103761)
    v = geofence_check(spoofed, FENCE)
    assert v.alarm
    expect = haversine_distance(spoofed, CENTER) - 100.0
    assert v.score_m == pytest.approx(expect, abs=1e-6)
    assert "beyond" in v.detail


def deployed_pair(separation_m=500.0):
    return {
        "AP-1": CENTER,
        "AP-2": destination_point(CENTER, 90.0, separation_m),
    }


def test_group_collapse_to_one_point_alarms():
    deployed = deployed_pair()
    spoofed = GeoPoint(30.086965, -101.103761)
    reported = {
        "AP-1": destination_point(spoofed, 10.0, 4.0),
        "AP-2": destination_point(spoofed, 200.0, 7.0),
    }
    v = group_consistency_check(reported, deployed, threshold_m=50.0)
    assert v.alarm
    # Deployed separation 500 m vs reported ~10 m.
    assert v.score_m == pytest.approx(500.0, abs=15.0)
    assert "AP-1" in v.detail and "AP-2" in v.detail


def test_group_small_noise_is_quiet():
    deployed = deployed_pair()
    reported = {
        "AP-1": destination_point(deployed["AP-1"], 45.0, 6.0),
        "AP-2": destination_point(deployed["AP-2"], 225.0, 8.0),
    }
    v = group_consistency_check(reported, deployed, threshold_m=50.0)
    assert not v.alarm
    assert v.score_m < 20.0


def test_group_is_translation_blind():
    # Moving the whole group rigidly preserves pairwise distances, so the
    # detector cannot see it; this is its documented blind spot.
    deployed = deployed_pair()
    reported = {k: destination_point(p, 0.0, 2000.0) for k, p in deployed.items()}
    v = group_consistency_check(reported, deployed, threshold_m=50.0)
    assert not v.alarm
    assert v.score_m < 1.0


def test_group_threshold_is_strict():
    deployed = deployed_pair(separation_m=500.0)
    reported = {
        "AP-1": deployed["AP-1"],
        "AP-2": destination_point(CENTER, 90.0, 450.0),
    }
    v50 = group_consistency_check(reported, deployed, threshold_m=50.0)
    v49 = group_consistency_check(reported, deployed, threshold_m=49.99)
    assert not v50.alarm  # deviation == threshold does not alarm
    assert v49.alarm
    assert v50.score_m == pytest.approx(50.0, abs=1e-6)


def test_group_uses_id_intersection():
    deployed = {**deployed_pair(), "AP-3": destination_point(CENTER, 0.0, 300.0)}
    reported = {
        "AP-2": deployed["AP-2"],
        "AP-3": destination_point(deployed["AP-3"], 90.0, 400.0),
        "AP-9": GeoPoint(10.0, 10.0),  # unknown id is ignored
    }
    v = group_consistency_check(reported, deployed, threshold_m=50.0)
    assert v.alarm
    assert "AP-9" not in v.detail


def test_group_requires_two_common_ids():
    with pytest.raises(InsufficientGroup):
        group_consistency_check({"AP-1": CENTER}, deployed_pair(), threshold_m=50.0)
    with pytest.raises(InsufficientGroup):
        group_consistency_check({"AP-9": CENTER}, deployed_pair(), threshold_m=50.0)


def test_group_check_equals_the_reference_over_random_groups():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 6)
        deployed = {f"AP-{i}": GeoPoint(rng.uniform(-60, 60), rng.uniform(-180, 180)) for i in range(n)}
        if rng.random() < 0.3:  # a rigid translation: discrepancies tie near zero
            reported = {k: destination_point(p, 90.0, 1000.0) for k, p in deployed.items()}
        else:
            reported = {k: destination_point(p, rng.uniform(0, 360), rng.uniform(0, 300)) for k, p in deployed.items()}
        for k in rng.sample(sorted(reported), rng.randint(0, n - 2)):
            del reported[k]
        reported["AP-99"] = GeoPoint(0.0, 0.0)  # not deployed, so ignored
        threshold = rng.choice([0.0, 50.0, 150.0])
        want = reference_group_check(reported, deployed, threshold)
        assert group_consistency_check(reported, deployed, threshold) == want


def random_point(rng, where):
    if where == "poles":
        return GeoPoint(rng.choice([-1, 1]) * rng.uniform(89.0, 90.0), rng.uniform(-180, 180))
    if where == "antimeridian":
        return GeoPoint(rng.uniform(-70, 70), rng.choice([-1, 1]) * rng.uniform(179.0, 180.0))
    return GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))


@pytest.mark.parametrize("where", ["anywhere", "antimeridian", "poles"])
def test_group_check_equals_the_reference_at_sweep_scale(where):
    # Groups of 8-24 APs as a scenario sweep runs them. Equal verdicts mean the
    # score bit for bit, the alarm, and the detail text with its worst pair.
    rng = random.Random(f"sweep-scale:{where}")
    for case in range(400):
        n = rng.randint(8, 24)
        deployed = {f"AP-{i:02d}": random_point(rng, where) for i in range(n)}
        kind = case % 4
        if kind == 0:  # every AP captured by one spoofer: the group collapses
            spoofed = random_point(rng, where)
            reported = {k: destination_point(spoofed, rng.uniform(0, 360), rng.uniform(0, 10)) for k in deployed}
        elif kind == 1:  # reported exactly as deployed: every discrepancy ties at zero
            reported = dict(deployed)
        elif kind == 2:  # a rigid translation: discrepancies tie near zero
            reported = {k: destination_point(p, 90.0, 1000.0) for k, p in deployed.items()}
        else:
            reported = {k: destination_point(p, rng.uniform(0, 360), rng.uniform(0, 300)) for k, p in deployed.items()}
        if case % 3 == 0:  # the same pair of positions twice: equal discrepancies tie
            a, b, c, d = rng.sample(sorted(deployed), 4)
            deployed[c], deployed[d] = deployed[a], deployed[b]
            reported[c], reported[d] = reported[a], reported[b]
        threshold = rng.choice([0.0, 50.0, 1e7])
        want = reference_group_check(reported, deployed, threshold)
        assert group_consistency_check(reported, deployed, threshold) == want



# --- the pruned search, case by case ----------------------------------------
# Each case is checked twice: with the rescan never taken, and with it taken
# before the first pair is measured, so both scans must be exact alone.


@pytest.fixture(params=["identity", "rescan"])
def rescan(request, monkeypatch):
    if request.param == "rescan":
        monkeypatch.setattr(detection, "_CHECKPOINT_PAIRS_PER_AP", 0)
        monkeypatch.setattr(detection, "_RESCAN_PAIRS_PER_AP", -1)
    else:
        monkeypatch.setattr(detection, "_CHECKPOINT_PAIRS_PER_AP", math.inf)
    return request.param


def assert_as_reference(reported, deployed, threshold=50.0):
    verdict = group_consistency_check(reported, deployed, threshold)
    assert verdict == reference_group_check(reported, deployed, threshold)
    return verdict


def test_ties_at_the_maximum_name_the_first_pair(rescan):
    # Along a meridian the distance depends on the latitude difference alone, so (AP-0, AP-1) and
    # (AP-2, AP-3) stretch by the same bits. Points a quarter turn of longitude apart stay a quarter
    # turn apart whatever their latitudes near the equator, so no other pair comes close. AP-3 drifts
    # the most, so the scan meets (AP-2, AP-3) first.
    deployed = {
        "AP-0": GeoPoint(0.0, 0.0), "AP-1": GeoPoint(0.5, 0.0), "AP-2": GeoPoint(0.0, 90.0), "AP-3": GeoPoint(0.5, 90.0)
    }
    reported = {
        "AP-0": GeoPoint(0.0, 0.0), "AP-1": GeoPoint(1.0, 0.0), "AP-2": GeoPoint(0.25, 90.0), "AP-3": GeoPoint(1.25, 90.0)
    }
    verdict = assert_as_reference(reported, deployed)
    assert "between AP-0 and AP-1" in verdict.detail


def test_coincident_aps(rescan):
    rng = random.Random("coincident")
    for _ in range(60):
        sites = [GeoPoint(40.0 + rng.uniform(0, 0.02), -77.0 + rng.uniform(0, 0.02)) for _ in range(3)]
        deployed = {f"AP-{i:02d}": rng.choice(sites) for i in range(12)}
        spoofed = [rng.choice(sites), destination_point(sites[0], rng.uniform(0, 360), 700.0)]
        reported = {k: rng.choice([p] + spoofed) for k, p in deployed.items()}
        assert_as_reference(reported, deployed, 0.0)


@pytest.mark.parametrize("shape", ["partial", "captured", "translated", "benign"])
def test_group_across_the_antimeridian(rescan, shape):
    rng = random.Random(f"antimeridian:{shape}")
    for _ in range(20):
        deployed = {
            f"AP-{i:02d}": GeoPoint(rng.uniform(-10, 10), rng.choice([1, -1]) * rng.uniform(179.99, 180.0))
            for i in range(16)
        }
        spoofed = GeoPoint(rng.uniform(-10, 10), rng.choice([179.995, -179.995]))
        bearing = rng.uniform(0, 360)
        reported = {}
        for k, p in deployed.items():
            if shape == "captured" or (shape == "partial" and p.lon_deg > 0):
                p = spoofed
            elif shape == "translated":
                p = destination_point(p, bearing, 1500.0)
            reported[k] = destination_point(p, rng.uniform(0, 360), rng.uniform(0, 10))
        assert_as_reference(reported, deployed)


def test_pair_whose_drift_sum_equals_its_discrepancy(rescan):
    # AP-0 and AP-1 close in along their meridian: the triangle bound of that pair is tight, and it is the
    # maximum. AP-2 and AP-3, a copy of them on another meridian, tie with it.
    deployed, reported = {}, {}
    for k, lon in (("AP-0", 10.0), ("AP-2", 40.0)):
        deployed[k], reported[k] = GeoPoint(0.0, lon), GeoPoint(0.125, lon)
    for k, lon in (("AP-1", 10.0), ("AP-3", 40.0)):
        deployed[k], reported[k] = GeoPoint(1.0, lon), GeoPoint(0.875, lon)
    verdict = assert_as_reference(reported, deployed)
    drift = haversine_distance(reported["AP-0"], deployed["AP-0"])
    assert verdict.score_m == pytest.approx(2 * drift, abs=1e-6)
    assert "between AP-0 and AP-1" in verdict.detail


@pytest.mark.parametrize("shape", ["partial", "captured", "translated", "benign"])
def test_group_shapes_at_200_aps(rescan, shape):
    reported, deployed = group(200, shape)
    assert_as_reference(reported, deployed)


@pytest.mark.parametrize("shape", ["partial", "captured", "translated", "benign"])
def test_group_shapes_measure_few_pairs(shape):
    # The shipped constants: 300 APs have 44,850 pairs.
    reported, deployed = group(300, shape)
    pairs, rescanned = pairs_measured(reported, deployed)
    assert pairs < 6 * 300
    assert rescanned == (shape in ("captured", "translated"))


def test_drift_to_the_antipode(rescan):
    rng = random.Random("antipode-drift")
    for _ in range(40):
        deployed = {f"AP-{i}": GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179)) for i in range(6)}
        reported = {k: destination_point(p, rng.uniform(0, 360), rng.uniform(0, 50)) for k, p in deployed.items()}
        p = deployed["AP-0"]
        reported["AP-0"] = GeoPoint(-p.lat_deg, p.lon_deg + (180.0 if p.lon_deg < 0 else -180.0))
        assert_as_reference(reported, deployed, 1e7)


def test_rounding_at_the_antipode_is_inside_the_margin(rescan):
    # AP-1 moves by 1e-9 degrees at the antipode of AP-0: its drift is about 1e-4 m, but the computed distance
    # to AP-0 jumps by 0.134 m where the haversine term rounds to 1. AP-2 drifts 1 cm and is measured first; a
    # pair bound without the margin would skip (AP-0, AP-1), the maximum.
    a = GeoPoint(5.251303, -76.838469)
    c = GeoPoint(50.0, 13.161531)
    deployed = {"AP-0": a, "AP-1": GeoPoint(-5.251303, 103.161531), "AP-2": c}
    reported = {"AP-0": a, "AP-1": GeoPoint(-5.251302999, 103.161531), "AP-2": destination_point(c, 0.0, 0.01)}
    verdict = assert_as_reference(reported, deployed)
    assert "between AP-0 and AP-1" in verdict.detail
    assert verdict.score_m > 0.1
