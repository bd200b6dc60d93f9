"""Spoofing detectors over reported GNSS fixes.

Two advisory checks: a per-AP geofence around the registered deployment
location, and a group check comparing pairwise distances between reported
positions against the as-deployed geometry. A single-antenna spoofer
collapses every captured receiver onto one broadcast point, so it cannot
preserve the group's relative geometry; the pairwise maximum catches
partial capture too, since any captured/uncaptured pair is distorted.
Enforcement (denying service) is wired through server policy; these
functions only produce verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InsufficientGroup
from .geo import Geofence, GeoPoint, centroid_rotation, haversine_distance

DEFAULT_GROUP_THRESHOLD_M = 50.0
# What rounding can add to a pair's discrepancy beyond its drift sum; derived in group_consistency_check.
_MARGIN_M = 3.0
# After measuring this many pairs per AP, the identity scan of group_consistency_check counts the pairs its
# bound still leaves; past _RESCAN_PAIRS_PER_AP per AP it hands over to the rescan, whose rotation, second
# drifts and sort cost about as much as measuring a few pairs per AP.
_CHECKPOINT_PAIRS_PER_AP = 2
_RESCAN_PAIRS_PER_AP = 8


@dataclass(frozen=True)
class DetectionVerdict:
    alarm: bool
    score_m: float
    detail: str


def geofence_check(fix_center: GeoPoint, fence: Geofence) -> DetectionVerdict:
    """Alarm when a reported position falls outside the registered fence.

    The score is the breach distance beyond the fence radius (0 inside;
    membership is boundary-inclusive, so a point exactly on the rim does
    not alarm).
    """
    distance = haversine_distance(fix_center, fence.center)
    breach = max(0.0, distance - fence.radius_m)
    alarm = distance > fence.radius_m
    if alarm:
        detail = (
            f"reported position {distance:.1f} m from fence center, "
            f"{breach:.1f} m beyond the {fence.radius_m:.1f} m radius"
        )
    else:
        detail = f"reported position inside fence ({distance:.1f} m from center)"
    return DetectionVerdict(alarm=alarm, score_m=breach, detail=detail)


def group_consistency_check(
    reported: Mapping[str, GeoPoint],
    deployed: Mapping[str, GeoPoint],
    threshold_m: float = DEFAULT_GROUP_THRESHOLD_M,
) -> DetectionVerdict:
    """Alarm when reported pairwise distances disagree with deployment.

    For every AP pair present in both maps, compares the distance between
    reported positions with the distance between deployed positions; the
    verdict score is the largest absolute discrepancy, and the pair named is
    the first at it in combinations order of the sorted serials. Requires at
    least two APs in common.

    The search is exact without measuring every pair. A rotation q of the
    sphere keeps distances, so by the triangle inequality a pair's
    discrepancy |d(r_i, r_j) - d(p_i, p_j)| is at most its drift sum
    d(r_i, q p_i) + d(r_j, q p_j), for reported r and deployed p. A scan
    walks the APs in descending order of drift and measures a pair only
    while its drift sum plus _MARGIN_M reaches the largest discrepancy found
    so far, so no pair at that maximum is skipped. The first scan takes q as
    the identity. APs that moved together (every AP captured, a rigid
    translation, the captured part of a group) have large drift sums but
    small discrepancies: if after _CHECKPOINT_PAIRS_PER_AP pairs per AP the
    identity still leaves more than _RESCAN_PAIRS_PER_AP pairs per AP, the
    check rescans, keeping its maximum. The rescan's q turns the deployed
    centroid of the APs that drifted at least half the most onto their
    reported centroid (geo.centroid_rotation); it measures a pair only if
    both drift sums, the identity's and q's, reach the maximum, and walks in
    the order of the one that leaves fewer pairs. Each pair is measured with
    haversine_distance as before, so the verdict is the same bit for bit
    whichever q and scan measured it.

    _MARGIN_M bounds what rounding adds to a discrepancy beyond its computed
    drift sum. With u = 2**-53 and libm's sin, cos and atan2 within 1 ulp, a
    computed haversine_distance is within E of the exact distance: rounding
    the radians moves h = sin²(dφ/2) + cos φ1 cos φ2 sin²(dλ/2) by at most
    10u (|x sin x| <= 1.82 for dφ in [-π, π] and 4.82 for dλ in [-2π, 2π],
    π for the two latitudes; the common rounding of π/180 moves both points
    by under 1e-8 m instead), and evaluating it by at most 12u (5u relative
    in the first term, 11u in the second, u for the sum). An error e in h
    moves 2 asin(√h) by at most 2 asin(√e), the most at the antipode, where h
    rounds to 1. So E = 2R asin(√(24u)) + 2e-8 m < 0.66 m, 24u covering the
    second-order terms. A computed discrepancy is within 2E of the exact
    one; each exact drift is within E + η of the computed one, with η = 0
    for the identity and η < 1e-6 m for the rotated points. With the
    roundings of the sums and the subtraction (4u of 4.1e7 m), a computed
    discrepancy exceeds its computed drift sum by less than
    4E + 2η + 2e-8 m < 2.64 m.
    """
    ids = sorted(set(reported) & set(deployed))
    if len(ids) < 2:
        raise InsufficientGroup(f"group consistency needs at least 2 APs, got {len(ids)}")
    rep = [reported[s] for s in ids]
    dep = [deployed[s] for s in ids]
    drifts = [haversine_distance(r, p) for r, p in zip(rep, dep)]
    worst, pair, done = _scan(rep, dep, drifts, drifts, -math.inf, (0, 1), _CHECKPOINT_PAIRS_PER_AP * len(ids))
    if not done:
        half = max(drifts) * 0.5
        moved = [i for i, d in enumerate(drifts) if d >= half]
        turn = centroid_rotation([dep[i] for i in moved], [rep[i] for i in moved])
        aligned = [haversine_distance(r, turn(p)) for r, p in zip(rep, dep)]
        first, second = (aligned, drifts) if _reach(aligned, worst) <= _reach(drifts, worst) else (drifts, aligned)
        worst, pair, _ = _scan(rep, dep, first, second, worst, pair, math.inf)
    alarm = worst > threshold_m
    detail = (
        f"max pairwise discrepancy {worst:.1f} m between {ids[pair[0]]} and "
        f"{ids[pair[1]]} ({'exceeds' if alarm else 'within'} {threshold_m:.1f} m)"
    )
    return DetectionVerdict(alarm=alarm, score_m=worst, detail=detail)


def _reach(drifts: list[float], worst: float) -> int:
    """How many pairs have a drift sum that, with the margin, reaches worst."""
    ranked = sorted(drifts, reverse=True)
    count, last = 0, len(ranked) - 1
    for k, d in enumerate(ranked):
        reach = d + _MARGIN_M
        while last > k and reach + ranked[last] < worst:
            last -= 1
        if last <= k:
            break
        count += last - k
    return count


def _scan(
    reported: list[GeoPoint],
    deployed: list[GeoPoint],
    drifts: list[float],
    other: list[float],
    worst: float,
    pair: tuple[int, int],
    checkpoint: float,
) -> tuple[float, tuple[int, int], bool]:
    """(worst, pair, done) after measuring every pair whose drift sums in drifts and in other reach worst.

    Walks the APs in descending order of drifts. pair indexes the lists,
    lower index first, and is the first pair at worst in combinations
    order. done is False when the scan stopped at its checkpoint: with
    checkpoint pairs measured and another to measure, the drift sums still
    left more than _RESCAN_PAIRS_PER_AP pairs per AP that reach worst.
    """
    n = len(drifts)
    order = sorted(range(n), key=drifts.__getitem__, reverse=True)
    ranked = [drifts[i] for i in order]
    measured = 0
    for k in range(n - 1):
        reach = ranked[k] + _MARGIN_M
        if reach + ranked[k + 1] < worst:
            break
        i = order[k]
        other_reach = other[i] + _MARGIN_M
        for l in range(k + 1, n):
            if reach + ranked[l] < worst:
                break
            j = order[l]
            if other_reach + other[j] < worst:
                continue
            if measured == checkpoint and _reach(drifts, worst) > _RESCAN_PAIRS_PER_AP * n:
                return worst, pair, False
            measured += 1
            a, b = (i, j) if i < j else (j, i)
            delta = abs(haversine_distance(reported[a], reported[b]) - haversine_distance(deployed[a], deployed[b]))
            if delta > worst or (delta == worst and (a, b) < pair):
                worst, pair = delta, (a, b)
    return worst, pair, True
