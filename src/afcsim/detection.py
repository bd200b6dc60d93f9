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

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Mapping

from .errors import InsufficientGroup
from .geo import Geofence, GeoPoint, haversine_distance, pairwise_distances

DEFAULT_GROUP_THRESHOLD_M = 50.0


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
    verdict score is the largest absolute discrepancy. Requires at least
    two APs in common.
    """
    ids = sorted(set(reported) & set(deployed))
    if len(ids) < 2:
        raise InsufficientGroup(f"group consistency needs at least 2 APs, got {len(ids)}")
    reported_distances = pairwise_distances([reported[s] for s in ids])
    deployed_distances = pairwise_distances([deployed[s] for s in ids])
    deltas = [abs(r - d) for r, d in zip(reported_distances, deployed_distances)]
    worst = max(deltas)
    worst_pair = next(islice(combinations(ids, 2), deltas.index(worst), None))  # the first pair at the maximum
    alarm = worst > threshold_m
    detail = (
        f"max pairwise discrepancy {worst:.1f} m between {worst_pair[0]} and "
        f"{worst_pair[1]} ({'exceeds' if alarm else 'within'} {threshold_m:.1f} m)"
    )
    return DetectionVerdict(alarm=alarm, score_m=worst, detail=detail)
