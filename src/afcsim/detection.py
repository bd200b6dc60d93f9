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
from functools import cached_property
from itertools import combinations, islice
from typing import Mapping

from .errors import InsufficientGroup
from .geo import Geofence, GeoPoint, haversine_distance, pairwise_distances, within_geofence

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
    alarm = not within_geofence(fix_center, fence)
    if alarm:
        detail = (
            f"reported position {distance:.1f} m from fence center, "
            f"{breach:.1f} m beyond the {fence.radius_m:.1f} m radius"
        )
    else:
        detail = f"reported position inside fence ({distance:.1f} m from center)"
    return DetectionVerdict(alarm=alarm, score_m=breach, detail=detail)


class Deployment(dict):
    """Deployed positions by AP serial, whose pairwise distances are computed once.

    Deployment does not change during a run, so a scenario run passes one of
    these to every group check instead of a plain map. Treat it as read-only:
    the distances are those of the first read.
    """

    @cached_property
    def distances(self) -> dict[tuple[str, str], float]:
        """The distance of each pair (a, b) with a < b."""
        return {(a, b): haversine_distance(self[a], self[b]) for a, b in combinations(sorted(self), 2)}


def group_consistency_check(
    reported: Mapping[str, GeoPoint],
    deployed: Mapping[str, GeoPoint],
    threshold_m: float = DEFAULT_GROUP_THRESHOLD_M,
) -> DetectionVerdict:
    """Alarm when reported pairwise distances disagree with deployment.

    For every AP pair present in both maps, compares the distance between
    reported positions with the distance between deployed positions; the
    verdict score is the largest absolute discrepancy. Requires at least
    two APs in common. A Deployment brings its distances along.
    """
    ids = sorted(set(reported) & set(deployed))
    if len(ids) < 2:
        raise InsufficientGroup(f"group consistency needs at least 2 APs, got {len(ids)}")
    if not isinstance(deployed, Deployment):
        deployed = Deployment((serial, deployed[serial]) for serial in ids)
    deployed_distances = deployed.distances
    reported_distances = pairwise_distances([reported[s] for s in ids])
    deltas = [abs(d - deployed_distances[pair]) for pair, d in zip(combinations(ids, 2), reported_distances)]
    worst = max(deltas)
    worst_pair = next(islice(combinations(ids, 2), deltas.index(worst), None))  # the first pair at the maximum
    alarm = worst > threshold_m
    detail = (
        f"max pairwise discrepancy {worst:.1f} m between {worst_pair[0]} and "
        f"{worst_pair[1]} ({'exceeds' if alarm else 'within'} {threshold_m:.1f} m)"
    )
    return DetectionVerdict(alarm=alarm, score_m=worst, detail=detail)
