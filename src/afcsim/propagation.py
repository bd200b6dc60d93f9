"""Path-loss and interference math for incumbent protection.

A two-regime model stands in for terrain-aware propagation: free-space
path loss up close, FSPL plus a fixed clutter offset at or beyond a
distance threshold. Setting clutter_offset_db to 0 reduces the model to
pure FSPL everywhere, which is how regime-sensitivity comparisons are run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import ChannelId, FrequencyRange, center_frequency_mhz, channel_span, overlaps
from .errors import CoincidentPoints, DegenerateDistance
from .geo import GeoPoint, haversine_distance, initial_bearing_deg


@dataclass(frozen=True)
class FsLink:
    """A protected fixed-service microwave receiver.

    The antenna is a two-level pattern: max_gain_dbi within half the
    beamwidth of the boresight azimuth (boundary inclusive), and
    max_gain_dbi - discrimination_db everywhere else.
    """

    id: str
    rx_location: GeoPoint
    freq_range: FrequencyRange
    bandwidth_mhz: float
    noise_figure_db: float
    max_gain_dbi: float
    azimuth_deg: float
    beamwidth_deg: float
    discrimination_db: float

    def __post_init__(self):
        if self.bandwidth_mhz <= 0.0:
            raise ValueError("bandwidth must be > 0")
        if self.noise_figure_db < 0.0:
            raise ValueError("noise figure must be >= 0")
        if not (0.0 <= self.azimuth_deg < 360.0):
            raise ValueError("azimuth must be in [0, 360)")
        if not (0.0 < self.beamwidth_deg <= 360.0):
            raise ValueError("beamwidth must be in (0, 360]")
        if self.discrimination_db < 0.0:
            raise ValueError("discrimination must be >= 0")


@dataclass(frozen=True)
class PropagationConfig:
    regime_threshold_m: float = 1000.0
    clutter_offset_db: float = 20.0

    def __post_init__(self):
        if self.regime_threshold_m <= 0.0:
            raise ValueError("regime threshold must be > 0")
        if self.clutter_offset_db < 0.0:
            raise ValueError("clutter offset must be >= 0")


@dataclass(frozen=True)
class ProtectionConfig:
    i_over_n_limit_db: float = -6.0
    regulatory_max_eirp_dbm: float = 36.0
    min_useful_eirp_dbm: float = 21.0

    def __post_init__(self):
        if self.regulatory_max_eirp_dbm <= self.min_useful_eirp_dbm:
            raise ValueError("regulatory max EIRP must exceed the useful minimum")


def fspl_db(distance_m: float, freq_mhz: float) -> float:
    """Free-space path loss: 32.45 + 20 log10(d_km) + 20 log10(f_MHz)."""
    return 32.45 + 20.0 * math.log10(distance_m / 1000.0) + 20.0 * math.log10(freq_mhz)


def path_loss_db(distance_m: float, freq_mhz: float, cfg: PropagationConfig) -> float:
    """Two-regime path loss; callers must never pass distances under 1 m.

    FSPL below the regime threshold, FSPL plus the clutter offset at or
    beyond it.
    """
    if distance_m < 1.0:
        raise DegenerateDistance(f"distance {distance_m} m is below the 1 m floor")
    loss = fspl_db(distance_m, freq_mhz)
    if distance_m >= cfg.regime_threshold_m:
        loss += cfg.clutter_offset_db
    return loss


def incumbent_noise_floor_dbm(link: FsLink) -> float:
    """Thermal noise floor at the link receiver: -174 dBm/Hz over its bandwidth, plus NF."""
    return -174.0 + 10.0 * math.log10(link.bandwidth_mhz * 1.0e6) + link.noise_figure_db


def off_axis_deg(bearing_deg: float, azimuth_deg: float) -> float:
    """Smallest angular separation between a bearing and a boresight azimuth."""
    d = abs(bearing_deg - azimuth_deg) % 360.0
    if d > 180.0:
        d = 360.0 - d
    return d


def rx_gain_dbi(link: FsLink, ap_pos: GeoPoint) -> float:
    """Receive gain toward an AP position under the two-level pattern.

    An AP on the receiver itself has no bearing to it and is taken to be
    on boresight.
    """
    try:
        bearing = initial_bearing_deg(link.rx_location, ap_pos)
    except CoincidentPoints:
        return link.max_gain_dbi
    theta = off_axis_deg(bearing, link.azimuth_deg)
    if theta <= link.beamwidth_deg / 2.0:
        return link.max_gain_dbi
    return link.max_gain_dbi - link.discrimination_db


def max_permissible_eirp_dbm(
    link: FsLink,
    ap_pos: GeoPoint,
    ch: ChannelId,
    pcfg: PropagationConfig,
    prot: ProtectionConfig,
    distance_m: float | None = None,
) -> float | None:
    """Highest AP EIRP keeping I/N at the link within the protection limit.

    Returns None (channel unavailable) when even the capped value falls
    below the useful minimum. distance_m overrides the geometric AP-link
    distance; coordination uses it to pass the uncertainty-contracted
    distance while gain still comes from the reported position's bearing.
    Path loss is evaluated at the channel's center frequency.
    """
    if distance_m is None:
        distance_m = haversine_distance(ap_pos, link.rx_location)
    gain = rx_gain_dbi(link, ap_pos)
    noise = incumbent_noise_floor_dbm(link)
    loss = path_loss_db(distance_m, center_frequency_mhz(ch), pcfg)
    raw = (noise + prot.i_over_n_limit_db) + loss - gain
    capped = min(raw, prot.regulatory_max_eirp_dbm)
    if capped < prot.min_useful_eirp_dbm:
        return None
    return capped


def i_over_n_db(
    link: FsLink,
    ap_pos: GeoPoint,
    ch: ChannelId,
    eirp_dbm: float,
    pcfg: PropagationConfig,
    distance_m: float | None = None,
) -> float:
    """Interference-to-noise ratio at the link for a transmission from ap_pos."""
    if distance_m is None:
        distance_m = haversine_distance(ap_pos, link.rx_location)
    gain = rx_gain_dbi(link, ap_pos)
    loss = path_loss_db(distance_m, center_frequency_mhz(ch), pcfg)
    return eirp_dbm - loss + gain - incumbent_noise_floor_dbm(link)


def constrains(link: FsLink, ch: ChannelId) -> bool:
    """True iff the channel's span overlaps the link's licensed range."""
    return overlaps(channel_span(ch), link.freq_range)
