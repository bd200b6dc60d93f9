"""GNSS signal environment and receiver fix model.

Receivers are modeled at the capture level: whichever signal set is
strongest at the antenna determines the computed position and time. A
spoofing source must beat the strongest legitimate signal by a capture
margin to win; ties go to the legitimate constellation. Position noise,
the reported uncertainty ellipse, and GPS time all derive from the winning
source, so one model expresses clean fixes, position spoofing, and
time-offset spoofing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import CoincidentPoints
from .geo import EARTH_RADIUS_M, GeoPoint, LocationEllipse, destination_point, haversine_distance
from .propagation import fspl_db

LEGIT = "LEGIT"
SPOOFER = "SPOOFER"

GPS_L1_MHZ = 1575.42
DEFAULT_CAPTURE_MARGIN_DB = 3.0


@dataclass(frozen=True)
class GnssSource:
    """One signal source as seen by a victim receiver.

    broadcast_position is the position a captured receiver will compute;
    for LEGIT sources it equals the receiver's true position by
    construction. time_offset_s shifts the receiver's GPS time relative to
    true time and must be 0 for LEGIT sources.
    """

    kind: str
    broadcast_position: GeoPoint
    received_power_dbm: float
    time_offset_s: float = 0.0

    def __post_init__(self):
        if self.kind not in (LEGIT, SPOOFER):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == LEGIT and self.time_offset_s != 0.0:
            raise ValueError("legitimate sources carry no time offset")


@dataclass(frozen=True)
class GnssNoiseModel:
    """Per-axis gaussian position noise and the reported-ellipse scale.

    ellipse_scale maps the per-axis noise draw to ellipse axes, which lie
    along east and north; any value >= sqrt(2) makes the reported ellipse
    hold the true position, which downstream uncertainty contraction relies on.
    """

    sigma_m: float = 5.0
    ellipse_scale: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_m) and self.sigma_m > 0.0):
            raise ValueError("sigma must be finite and > 0")
        if not (math.isfinite(self.ellipse_scale) and self.ellipse_scale > 0.0):
            raise ValueError("ellipse scale must be finite and > 0")
        # Bounds the reported ellipse's axes, which scale the noise draws.
        if self.sigma_m * self.ellipse_scale > EARTH_RADIUS_M:
            raise ValueError("sigma times ellipse scale must be at most the Earth's radius")


@dataclass(frozen=True)
class GnssFix:
    """A computed fix plus simulation-only ground truth about its origin.

    winning_kind never reaches the AP decision path; it exists so
    scenarios can report whether a receiver was captured.
    """

    ellipse: LocationEllipse
    winning_kind: str


def received_power_dbm(spoofer_tx_power_dbm: float, spoofer_pos: GeoPoint, victim_pos: GeoPoint) -> float:
    """Received spoofer power at the victim under free-space loss at GPS L1."""
    distance = haversine_distance(spoofer_pos, victim_pos)
    if distance == 0.0:  # equal latitude and longitude, or an offset the distance underflows
        raise CoincidentPoints("spoofer and victim positions coincide")
    return spoofer_tx_power_dbm - fspl_db(distance, GPS_L1_MHZ)


def _winner(sources: list[GnssSource], capture_margin_db: float) -> GnssSource:
    best_legit = best_spoofer = None
    for s in sources:  # the first strongest of each kind, as max(key=received_power_dbm) picks it
        if s.kind == LEGIT:
            if best_legit is None or s.received_power_dbm > best_legit.received_power_dbm:
                best_legit = s
        elif best_spoofer is None or s.received_power_dbm > best_spoofer.received_power_dbm:
            best_spoofer = s
    if best_spoofer is None:
        assert best_legit is not None
        return best_legit
    if best_legit is None:
        return best_spoofer
    p_spoof = best_spoofer.received_power_dbm
    p_legit = best_legit.received_power_dbm
    if p_spoof >= p_legit + capture_margin_db and p_spoof > p_legit:
        return best_spoofer
    return best_legit


def compute_fix(
    true_pos: GeoPoint,
    sources: list[GnssSource],
    true_time: float,
    noise: GnssNoiseModel,
    rng_seed,
    capture_margin_db: float = DEFAULT_CAPTURE_MARGIN_DB,
) -> GnssFix | None:
    """Compute the receiver's fix, or None when no signal is present.

    Deterministic for a fixed rng_seed: the draw order is east offset, then
    north offset. The major axis lies east (90°) if |east| >= |north|, else north (0°).
    """
    if not sources:
        return None
    for s in sources:
        # run_scenario passes the very object its legit source broadcasts; other callers get the field test.
        if s.kind == LEGIT and s.broadcast_position is not true_pos and s.broadcast_position != true_pos:
            raise ValueError("legitimate sources broadcast the receiver's true position")
    winner = _winner(sources, capture_margin_db)
    rng = random.Random(rng_seed)
    dx = rng.gauss(0.0, noise.sigma_m)  # east
    dy = rng.gauss(0.0, noise.sigma_m)  # north
    offset = math.hypot(dx, dy)
    if offset > 0.0:
        bearing = math.degrees(math.atan2(dx, dy)) % 360.0
        center = destination_point(winner.broadcast_position, bearing, offset)
    else:
        center = winner.broadcast_position
    major = noise.ellipse_scale * max(abs(dx), abs(dy))
    minor = noise.ellipse_scale * min(abs(dx), abs(dy))
    ellipse = LocationEllipse(
        center=center,
        major_axis_m=major,
        minor_axis_m=minor,
        orientation_deg=90.0 if abs(dx) >= abs(dy) else 0.0,
        gps_time=true_time + winner.time_offset_s,
    )
    return GnssFix(ellipse=ellipse, winning_kind=winner.kind)
