"""Check the pruned group check on groups of 300 to 2,000 APs, where the tier-1 groups of at most 24 never go.

Each group is seeded: deployed positions uniform over a 3 km disc around a
CONUS point, reported positions with 5 m gaussian noise per axis (the GNSS
model's default), in four shapes:

- partial: a spoofer steers the APs within 1.5 km of one AP to a CONUS point;
- captured: it steers every AP there, so the group collapses;
- translated: every AP moved 2 km on one bearing, the check's blind spot;
- benign: no spoofer.

Every verdict of detection.group_consistency_check (score, alarm, worst pair
and detail text) must equal that of tests/reference_group.py, which measures
all n(n-1)/2 pairs. This needs only the standard library. From the
repository root:

    PYTHONPATH=src python -m tests.check_group_scale

It prints, per group, the median milliseconds of N_TIMES checks, the pairs
the check measured and whether it rescanned with aligned drifts. It exits 1
at the first verdict that differs, and asserts no timing, since hosts vary.
"""

import math
import random
import statistics
import sys
import time
from unittest import mock

from afcsim import detection
from afcsim.detection import group_consistency_check
from afcsim.geo import GeoPoint, destination_point, haversine_distance
from tests.reference_group import reference_group_check

SIZES = (300, 1000, 2000)
SHAPES = ("partial", "captured", "translated", "benign")
CAMPUS_M = 3000.0
CAPTURE_M = 1500.0
SIGMA_M = 5.0
N_TIMES = 5


def noisy(rng: random.Random, p: GeoPoint) -> GeoPoint:
    dx, dy = rng.gauss(0.0, SIGMA_M), rng.gauss(0.0, SIGMA_M)
    return destination_point(p, math.degrees(math.atan2(dx, dy)), math.hypot(dx, dy))


def conus_point(rng: random.Random) -> GeoPoint:
    return GeoPoint(rng.uniform(30.0, 46.0), rng.uniform(-120.0, -76.0))


def group(n: int, shape: str) -> tuple[dict, dict]:
    """(reported, deployed) of one seeded group."""
    rng = random.Random(f"group-scale:{n}:{shape}")
    center = conus_point(rng)
    deployed = {
        f"AP-{i:04d}": destination_point(center, rng.uniform(0.0, 360.0), CAMPUS_M * math.sqrt(rng.random()))
        for i in range(n)
    }
    broadcast = conus_point(rng)
    victim = deployed[rng.choice(sorted(deployed))]
    bearing = rng.uniform(0.0, 360.0)
    reported = {}
    for serial, p in deployed.items():
        if shape == "captured" or (shape == "partial" and haversine_distance(p, victim) <= CAPTURE_M):
            p = broadcast
        elif shape == "translated":
            p = destination_point(p, bearing, 2000.0)
        reported[serial] = noisy(rng, p)
    return reported, deployed


def pairs_measured(reported: dict, deployed: dict) -> tuple[int, bool]:
    """(pairs measured, rescanned) of one check, counted by wrapping its distance and rotation calls."""
    distances = mock.Mock(wraps=detection.haversine_distance)
    aligned = mock.Mock(wraps=detection.centroid_rotation)
    with mock.patch.object(detection, "haversine_distance", distances), mock.patch.object(
        detection, "centroid_rotation", aligned
    ):
        group_consistency_check(reported, deployed)
    n = len(set(reported) & set(deployed))
    return (distances.call_count - n * (1 + aligned.call_count)) // 2, aligned.call_count > 0


def check() -> bool:
    for n in SIZES:
        for shape in SHAPES:
            reported, deployed = group(n, shape)
            times = []
            for _ in range(N_TIMES):
                start = time.perf_counter()
                verdict = group_consistency_check(reported, deployed)
                times.append(time.perf_counter() - start)
            want = reference_group_check(reported, deployed)
            if verdict != want:
                print(f"FAIL: {n} APs, {shape}: {verdict} != all pairs {want}")
                return False
            pairs, rescanned = pairs_measured(reported, deployed)
            print(
                f"{n:5d} APs {shape:10s} {statistics.median(times) * 1e3:8.2f} ms per check,"
                f" {pairs:7d} of {n * (n - 1) // 2} pairs{', rescanned' if rescanned else ''};"
                f" {verdict.detail}"
            )
    print("every verdict equals the all-pairs reference")
    return True


if __name__ == "__main__":
    sys.exit(0 if check() else 1)
