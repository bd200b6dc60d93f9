"""Geofence and group-consistency spoofing detectors."""

import random
from itertools import combinations

import pytest

from afcsim.detection import DetectionVerdict, geofence_check, group_consistency_check
from afcsim.errors import InsufficientGroup
from afcsim.geo import Geofence, GeoPoint, destination_point, haversine_distance

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


def reference_group_check(reported, deployed, threshold_m=50.0) -> DetectionVerdict:
    """The group check as written before deployed distances were computed once."""
    ids = sorted(set(reported) & set(deployed))
    if len(ids) < 2:
        raise InsufficientGroup(
            f"group consistency needs at least 2 APs, got {len(ids)}"
        )
    worst = -1.0
    worst_pair = (ids[0], ids[1])
    for a, b in combinations(ids, 2):
        d_reported = haversine_distance(reported[a], reported[b])
        d_deployed = haversine_distance(deployed[a], deployed[b])
        delta = abs(d_reported - d_deployed)
        if delta > worst:
            worst = delta
            worst_pair = (a, b)
    alarm = worst > threshold_m
    detail = (
        f"max pairwise discrepancy {worst:.1f} m between {worst_pair[0]} and "
        f"{worst_pair[1]} ({'exceeds' if alarm else 'within'} {threshold_m:.1f} m)"
    )
    return DetectionVerdict(alarm=alarm, score_m=worst, detail=detail)


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

