"""The single-pair I/N chain, kept as the reference that the compiled link walk is held to.

afcsim.propagation computes every permissible EIRP and every I/N through
walk_links over compiled link rows, grants and harm over a database and
max_permissible_eirp_dbm and i_over_n_db over one link's row. This module
is the chain that walk replaced, one (AP position, link) pair at a time:

- fspl, reference_path_loss_db, reference_max_permissible_eirp_dbm and
  reference_i_over_n_db compute path loss unsplit, as written before path
  loss was split into a distance, a frequency and a clutter term;
- clutter_db, off_axis_deg, rx_gain_dbi, LinkBudget and link_budget are the
  split chain whose float operations walk_links repeats in the same order,
  those of off_axis_deg and rx_gain_dbi only within _BEAM_EPS of a beam
  edge; elsewhere the walk takes the same gain from the beam normals.

Both take path loss at any distance the caller passes, so tests can pin the
uncertainty-contracted distance that grants use. A distance under the 1 m
floor raises DegenerateDistance; the product floors it instead. Only the
model types, the noise floor, the distance and frequency terms and the
great-circle functions come from the package, never walk_links, link_row
or LinkBudget.lower_caps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from afcsim.channels import center_frequency_mhz
from afcsim.errors import CoincidentPoints
from afcsim.geo import GeoPoint, haversine_distance, initial_bearing_deg
from afcsim.propagation import (
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    distance_loss_db,
    incumbent_noise_floor_dbm,
)


class DegenerateDistance(Exception):
    """Raised when a path-loss distance is below the 1 m model floor."""


def clutter_db(distance_m: float, cfg: PropagationConfig) -> float:
    """The regime term of path loss: 0 below the threshold, the clutter offset from it on.

    Distances under the 1 m floor raise DegenerateDistance.
    """
    if distance_m < 1.0:
        raise DegenerateDistance(f"distance {distance_m} m is below the 1 m floor")
    return cfg.clutter_offset_db if distance_m >= cfg.regime_threshold_m else 0.0


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


class LinkBudget(NamedTuple):
    """The channel-independent terms of the I/N chain for one AP position and link.

    Only frequency_loss_db of the channel's center frequency is left to add,
    in fspl_db's order: path loss is (distance_loss_db + frequency term) +
    clutter_db.
    """

    distance_loss_db: float
    clutter_db: float
    noise_floor_dbm: float
    gain_dbi: float

    def loss_db(self, freq_loss_db: float) -> float:
        """Two-regime path loss at the channel whose frequency term is freq_loss_db."""
        return (self.distance_loss_db + freq_loss_db) + self.clutter_db

    def max_eirp_dbm(self, freq_loss_db: float, prot: ProtectionConfig) -> float | None:
        """Highest EIRP keeping I/N within the limit, capped; None below the useful minimum."""
        loss = self.loss_db(freq_loss_db)
        raw = (self.noise_floor_dbm + prot.i_over_n_limit_db) + loss - self.gain_dbi
        # min(raw, ceiling) written as a comparison, which is cheaper per pair.
        ceiling = prot.regulatory_max_eirp_dbm
        capped = ceiling if ceiling < raw else raw
        if capped < prot.min_useful_eirp_dbm:
            return None
        return capped

    def i_over_n_db(self, freq_loss_db: float, eirp_dbm: float) -> float:
        """Interference-to-noise ratio for a transmission at eirp_dbm."""
        return eirp_dbm - self.loss_db(freq_loss_db) + self.gain_dbi - self.noise_floor_dbm


def link_budget(
    link: FsLink, ap_pos: GeoPoint, distance_m: float, pcfg: PropagationConfig
) -> LinkBudget:
    """The budget toward ap_pos with path loss taken at distance_m (at least 1 m).

    Gain comes from the bearing to ap_pos whatever distance_m is, so
    coordination can pass an uncertainty-contracted distance.
    """
    clutter = clutter_db(distance_m, pcfg)
    return LinkBudget(
        distance_loss_db(distance_m),
        clutter,
        incumbent_noise_floor_dbm(link),
        rx_gain_dbi(link, ap_pos),
    )


def fspl(d_m: float, f_mhz: float) -> float:
    return 32.45 + 20.0 * math.log10(d_m / 1000.0) + 20.0 * math.log10(f_mhz)


def reference_path_loss_db(distance_m: float, freq_mhz: float, cfg: PropagationConfig) -> float:
    if distance_m < 1.0:
        raise DegenerateDistance(f"distance {distance_m} m is below the 1 m floor")
    loss = fspl(distance_m, freq_mhz)
    if distance_m >= cfg.regime_threshold_m:
        loss += cfg.clutter_offset_db
    return loss


def reference_max_permissible_eirp_dbm(link, ap_pos, ch, pcfg, prot, distance_m=None):
    if distance_m is None:
        distance_m = haversine_distance(ap_pos, link.rx_location)
    gain = rx_gain_dbi(link, ap_pos)
    noise = incumbent_noise_floor_dbm(link)
    loss = reference_path_loss_db(distance_m, center_frequency_mhz(ch), pcfg)
    raw = (noise + prot.i_over_n_limit_db) + loss - gain
    capped = min(raw, prot.regulatory_max_eirp_dbm)
    if capped < prot.min_useful_eirp_dbm:
        return None
    return capped


def reference_i_over_n_db(link, ap_pos, ch, eirp_dbm, pcfg, distance_m=None):
    if distance_m is None:
        distance_m = haversine_distance(ap_pos, link.rx_location)
    gain = rx_gain_dbi(link, ap_pos)
    loss = reference_path_loss_db(distance_m, center_frequency_mhz(ch), pcfg)
    return eirp_dbm - loss + gain - incumbent_noise_floor_dbm(link)
