"""The group consistency check over every pair, kept as the reference that the pruned search is held to.

afcsim.detection.group_consistency_check measures only the pairs whose drift
bound can reach the largest discrepancy. This module measures all
n(n-1)/2 pairs, each in combinations order of the sorted serials with
haversine_distance for both distances, and names the first pair at the
maximum. It needs only the standard library and the package's model types
and great-circle distance.
"""

from itertools import combinations

from afcsim.detection import DetectionVerdict
from afcsim.errors import InsufficientGroup
from afcsim.geo import haversine_distance


def reference_group_check(reported, deployed, threshold_m=50.0) -> DetectionVerdict:
    """The group check measuring every pair: the same verdict, score, pair and detail text."""
    ids = sorted(set(reported) & set(deployed))
    if len(ids) < 2:
        raise InsufficientGroup(f"group consistency needs at least 2 APs, got {len(ids)}")
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
