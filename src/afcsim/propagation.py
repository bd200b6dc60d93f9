"""Path-loss and interference math for incumbent protection.

A two-regime model stands in for terrain-aware propagation: free-space
path loss up close, FSPL plus a fixed clutter offset at or beyond a
distance threshold. Setting clutter_offset_db to 0 reduces the model to
pure FSPL everywhere, which is how regime-sensitivity comparisons are run.

The I/N chain is split into per-link terms (LinkBudget: distance loss,
clutter, noise floor, gain) and one per-channel term (frequency_loss_db),
so availability computes a link's terms once per request and only adds the
channel's term per (channel, link) pair. Every caller gets the per-link
terms from one walk over compiled link rows (link_row, walk_links): grants
and harm over a database, and max_permissible_eirp_dbm and i_over_n_db over
one link's row. A channel's fate is one number, its cap: caps start at the
ceiling and only take minima, -inf means banned by an exclusion zone, below
the useful minimum means withheld, and the ceiling means unbound. The walk
drops on one rule, a raw EIRP on the row's lowest channel, at its gain
toward the AP, that reaches the ceiling; so it yields only rows that can
lower a cap. One beam test gives that gain and the prune's off-beam skip:
each row carries the normals of its two beam edges (link_row, beam_normals),
whose products with the AP's unit vector put the AP in or off the main
beam, and the bearing decides only within _BEAM_EPS of an edge. Before their
walk, grants over a database of at least server.INDEX_MIN_ROWS rows skip
every row whose keep-out radius falls short of a lower bound on its
distance, and every row whose side-lobe radius falls short of that bound
while the beam test puts the AP off its main beam. A smaller database is
walked whole, as there the cells cost more than they skip; the grants are
the same, since the skip spares the walk only rows it would drop. Rows are
kept in 1 degree cells (keep_out_cells), and rows_within reads one candidate
list per AP cell, built on its first inquiry: per cell within reach of the
AP cell, the rows whose main beam may hold some point of it, by radius, and
the rest, by side-lobe radius. tests/reference_chain.py holds the
single-pair chain that the walk repeats float operation for float
operation, and tests/reference_prune.py the single scan by main-lobe radius
whose rows rows_within hands over, row for row.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .channels import (
    BAND_HIGH_MHZ,
    BAND_LOW_MHZ,
    CHANNELS,
    ChannelId,
    FrequencyRange,
    center_frequency_mhz,
    channel_span,
    overlaps,
)
from .geo import EARTH_RADIUS_M, GeoPoint, initial_bearing_deg
from .geo import haversine_distance  # noqa: F401  (perfbench/tracing.py counts calls through this name)

# The regulatory EIRP ceiling of a standard-power device; no config or grant exceeds it.
MAX_EIRP_DBM = 36.0

# The largest magnitude a dB, dBm or dBi input may have. Far beyond any physical
# value, it keeps every sum of the model's few dB terms finite.
MAX_DB = 1000.0


@dataclass(frozen=True, slots=True)
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
        # Each range test is false for NaN, and the upper bounds exclude infinity.
        if not (0.0 < self.bandwidth_mhz < math.inf):
            raise ValueError("bandwidth must be finite and > 0")
        if not (0.0 <= self.noise_figure_db < math.inf):
            raise ValueError("noise figure must be finite and >= 0")
        if not (-math.inf < self.max_gain_dbi < math.inf):
            raise ValueError("max gain must be finite")
        if not (0.0 <= self.azimuth_deg < 360.0):
            raise ValueError("azimuth must be in [0, 360)")
        if not (0.0 < self.beamwidth_deg <= 360.0):
            raise ValueError("beamwidth must be in (0, 360]")
        if not (0.0 <= self.discrimination_db < math.inf):
            raise ValueError("discrimination must be finite and >= 0")
        if self.bandwidth_mhz > BAND_HIGH_MHZ - BAND_LOW_MHZ:
            raise ValueError(f"bandwidth must be at most the {BAND_HIGH_MHZ - BAND_LOW_MHZ:g} MHz band")
        if max(self.noise_figure_db, abs(self.max_gain_dbi), self.discrimination_db) > MAX_DB:
            raise ValueError(f"noise figure, gain and discrimination must be within ±{MAX_DB:g} dB")


@dataclass(frozen=True)
class PropagationConfig:
    regime_threshold_m: float = 1000.0
    clutter_offset_db: float = 20.0

    def __post_init__(self):
        # Range tests as in FsLink: false for NaN, and infinity is out of range.
        if not (0.0 < self.regime_threshold_m < math.inf):
            raise ValueError("regime threshold must be finite and > 0")
        if not (0.0 <= self.clutter_offset_db < math.inf):
            raise ValueError("clutter offset must be finite and >= 0")
        if self.clutter_offset_db > MAX_DB:
            raise ValueError(f"clutter offset must be within ±{MAX_DB:g} dB")


@dataclass(frozen=True)
class ProtectionConfig:
    i_over_n_limit_db: float = -6.0
    regulatory_max_eirp_dbm: float = MAX_EIRP_DBM
    min_useful_eirp_dbm: float = 21.0

    def __post_init__(self):
        if not (-math.inf < self.i_over_n_limit_db < math.inf):
            raise ValueError("I/N limit must be finite")
        if not (-math.inf < self.min_useful_eirp_dbm < math.inf):
            raise ValueError("useful minimum EIRP must be finite")
        if max(abs(self.i_over_n_limit_db), abs(self.min_useful_eirp_dbm)) > MAX_DB:
            raise ValueError(f"I/N limit and useful minimum EIRP must be within ±{MAX_DB:g} dB")
        if not (self.min_useful_eirp_dbm < self.regulatory_max_eirp_dbm <= MAX_EIRP_DBM):
            raise ValueError(
                "regulatory max EIRP must be finite, exceed the useful minimum"
                f" and be at most {MAX_EIRP_DBM} dBm"
            )


def distance_loss_db(distance_m: float) -> float:
    """The distance half of free-space path loss: 32.45 + 20 log10(d_km)."""
    return 32.45 + 20.0 * math.log10(distance_m / 1000.0)


def frequency_loss_db(freq_mhz: float) -> float:
    """The frequency half of free-space path loss: 20 log10(f_MHz)."""
    return 20.0 * math.log10(freq_mhz)


# Per channel position in channels.CHANNELS, the frequency term of its path loss.
FREQ_LOSS_DB: tuple[float, ...] = tuple(frequency_loss_db(center_frequency_mhz(ch)) for ch in CHANNELS)


def fspl_db(distance_m: float, freq_mhz: float) -> float:
    """Free-space path loss: 32.45 + 20 log10(d_km) + 20 log10(f_MHz)."""
    return distance_loss_db(distance_m) + frequency_loss_db(freq_mhz)


def incumbent_noise_floor_dbm(link: FsLink) -> float:
    """Thermal noise floor at the link receiver: -174 dBm/Hz over its bandwidth, plus NF."""
    return -174.0 + 10.0 * math.log10(link.bandwidth_mhz * 1.0e6) + link.noise_figure_db


class LinkBudget(NamedTuple):
    """The channel-independent terms of the I/N chain for one AP position and link.

    Only frequency_loss_db of the channel's center frequency is left to add,
    in fspl_db's order: path loss is (distance_loss_db + frequency term) +
    clutter_db, the clutter offset at or beyond the regime threshold and 0
    below it.
    """

    distance_loss_db: float
    clutter_db: float
    noise_floor_dbm: float
    gain_dbi: float

    def lower_caps(
        self, caps: list[float], positions: tuple[int, ...], freq_loss_db: tuple[float, ...], limit_db: float
    ) -> None:
        """Lower caps[p] to this link's raw EIRP on channel p, per p in positions, where that is lower.

        freq_loss_db[p] is channel p's frequency term, and the raw EIRP is
        (noise + limit) + loss - gain. Caps only take minima: whether a cap
        ends below the useful minimum, banned (-inf) or unbound (the
        ceiling) is read from its final value by the caller.
        """
        distance, clutter, noise, gain = self
        base = noise + limit_db
        for p in positions:
            raw = base + ((distance + freq_loss_db[p]) + clutter) - gain
            if raw < caps[p]:
                caps[p] = raw

    def i_over_n_db(self, freq_loss_db: float, eirp_dbm: float) -> float:
        """Interference-to-noise ratio for a transmission at eirp_dbm."""
        distance, clutter, noise, gain = self
        return eirp_dbm - ((distance + freq_loss_db) + clutter) + gain - noise


_RAD = math.pi / 180.0  # what math.radians multiplies by
_DEG = 180.0 / math.pi  # what math.degrees multiplies by
_TWO_R = 2.0 * EARTH_RADIUS_M

# The slack of the one beam test, in the units of the AP's unit vector p and of the walk's bearing
# numerators x and y: a beam normal's product with p decides only beyond it (walk_links, rows_within).
_BEAM_EPS = 1e-12


def link_row(index: int, f_lo: float, positions: tuple[int, ...], link: FsLink) -> tuple:
    """A link's compiled row for walk_links and keep_out_cells.

    index, f_lo and positions are the caller's and are passed through; the
    rest are the link's fixed terms: the receiver's latitude and longitude,
    the cosine and sine of its latitude, the noise floor, the main- and
    side-lobe gains, the azimuth, the half beamwidth, and the six floats of
    beam_normals.
    """
    rx = link.rx_location
    lat = math.radians(rx.lat_deg)
    cos_rx, sin_rx = math.cos(lat), math.sin(lat)
    main, half_bw = link.max_gain_dbi, link.beamwidth_deg / 2.0
    return (
        index, f_lo, positions, rx.lat_deg, rx.lon_deg, cos_rx, sin_rx,
        incumbent_noise_floor_dbm(link), main, main - link.discrimination_db, link.azimuth_deg, half_bw,
        *beam_normals(rx.lon_deg, cos_rx, sin_rx, link.azimuth_deg, half_bw),
    )


def beam_normals(lon_deg: float, cos_rx: float, sin_rx: float, azimuth_deg: float, half_bw_deg: float) -> tuple:
    """The beam terms of a link_row: the normals of the great circles through the receiver along
    the two edges of its main beam, each turned toward the beam, three floats each.

    The edges lie at bearings az - hb and az + hb (az the azimuth, hb the half beamwidth), and
    the normals are cos(az - hb) E - sin(az - hb) N and sin(az + hb) N - cos(az + hb) E, with E
    and N the receiver's east and north unit vectors in Earth-centred coordinates. For the AP's
    unit vector p, with x = E.p and y = N.p (so atan2(x, y) is the bearing to the AP and
    r = |(x, y)| the sine of its central angle), and d the signed angle from az to that bearing,
    n_l.p = r sin(hb + d) and n_r.p = r sin(hb - d). For hb < 90 degrees both are >= 0 exactly
    when |d| <= hb, that is when the AP is in the main beam. A half beamwidth of 90 degrees or
    more, where that no longer holds, gets zero terms.
    """
    if half_bw_deg >= 90.0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    sin, cos = math.sin, math.cos
    lon = lon_deg * _RAD
    sin_lon, cos_lon = sin(lon), cos(lon)
    # E = (-sin_lon, cos_lon, 0) and N = (-north_x, -north_y, cos_rx).
    north_x, north_y = sin_rx * cos_lon, sin_rx * sin_lon
    left, right = (azimuth_deg - half_bw_deg) * _RAD, (azimuth_deg + half_bw_deg) * _RAD
    sin_l, cos_l, sin_r, cos_r = sin(left), cos(left), sin(right), cos(right)
    return (
        north_x * sin_l - sin_lon * cos_l, north_y * sin_l + cos_lon * cos_l, -cos_rx * sin_l,
        sin_lon * cos_r - north_x * sin_r, -cos_lon * cos_r - north_y * sin_r, cos_rx * sin_r,
    )


def walk_links(
    rows, ap_pos: GeoPoint, contraction_m: float, pcfg: PropagationConfig, limit_db: float, ceiling_dbm: float
):
    """Per compiled row, in order: (index, f_lo, positions, LinkBudget toward ap_pos).

    Path loss is taken at max(1 m, distance - contraction_m) and gain from
    the bearing to ap_pos under the two-level pattern; an AP on the receiver
    has no bearing and is on boresight. Every float operation is that of
    geo.haversine_distance and distance_loss_db, and of the clutter_db of
    tests/reference_chain.py, in the same order; only the trigonometry of
    fixed latitudes is computed once, here or in link_row.

    The gain comes from the beam test that rows_within shares, the row's
    beam normals (beam_normals) against the AP's unit vector p, built once
    per call: a product below -_BEAM_EPS gives the side-lobe gain, and both
    above it the main-lobe gain. Either puts the AP more than _BEAM_EPS / r
    rad off or inside the beam edge, far beyond what the bearing in degrees
    rounds by, so the gain is that of rx_gain_dbi in tests/reference_chain.py
    bit for bit. Only within _BEAM_EPS of an edge does the bearing decide,
    geo.initial_bearing_deg from the receiver and the float operations of
    rx_gain_dbi in the same order: on a beam edge, for an AP on or antipodal
    to the receiver (r near 0), and for a half beamwidth of 90 degrees or
    more, whose normals are zero.

    The one drop rule: a row whose raw EIRP at f_lo and at its gain toward
    ap_pos, (noise + limit) + ((distance + f_lo) + clutter) - gain, reaches
    ceiling_dbm is dropped. Raw only grows with the frequency term (each
    rounding step is monotone) and f_lo is the smallest of the row's terms,
    so such a row permits the ceiling on every channel and lowers no cap;
    the walk yields only rows that can. ceiling_dbm = inf drops none.
    """
    sin, cos, atan2, sqrt, log10 = math.sin, math.cos, math.atan2, math.sqrt, math.log10
    # LinkBudget(*terms) without the Python-level __new__ that NamedTuple generates.
    new_budget = functools.partial(tuple.__new__, LinkBudget)
    lat = ap_pos.lat_deg
    lon = ap_pos.lon_deg
    cos_ap = cos(lat * _RAD)
    # The AP's unit vector, as rows_within builds it.
    px, py, pz = cos_ap * cos(lon * _RAD), cos_ap * sin(lon * _RAD), sin(lat * _RAD)
    eps = _BEAM_EPS
    threshold = pcfg.regime_threshold_m
    offset = pcfg.clutter_offset_db
    for (
        index, f_lo, positions, rx_lat, rx_lon, cos_rx, _, noise, main, side, azimuth, half_bw,
        nlx, nly, nlz, nrx, nry, nrz,
    ) in rows:
        # haversine_distance(ap_pos, rx), then the 1 m floor.
        h = sin((rx_lat - lat) * _RAD * 0.5) ** 2 + cos_ap * cos_rx * sin((rx_lon - lon) * _RAD * 0.5) ** 2
        if h > 1.0:
            h = 1.0
        d = _TWO_R * atan2(sqrt(h), sqrt(1.0 - h)) - contraction_m
        if d < 1.0:
            d = 1.0
        clutter = offset if d >= threshold else 0.0
        distance = 32.45 + 20.0 * log10(d / 1000.0)
        left = nlx * px + nly * py + nlz * pz
        right = nrx * px + nry * py + nrz * pz
        if left < -eps or right < -eps:
            gain = side
        elif left > eps and right > eps:
            gain = main
        else:
            # Within eps of an edge: the bearing and the two-level pattern, where an AP on the
            # receiver is on boresight.
            gain = main
            if rx_lat != lat or rx_lon != lon:
                theta = abs(initial_bearing_deg(GeoPoint(rx_lat, rx_lon), ap_pos) - azimuth) % 360.0
                if theta > 180.0:
                    theta = 360.0 - theta
                if theta > half_bw:
                    gain = side
        if (noise + limit_db) + ((distance + f_lo) + clutter) - gain >= ceiling_dbm:
            continue
        yield index, f_lo, positions, new_budget((distance, clutter, noise, gain))


def keep_out_radius_m(noise_dbm, gain_dbi, freq_loss_db, pcfg: PropagationConfig, limit_db, ceiling_dbm) -> float:
    """The contracted distance from which the raw EIRP, (noise + limit) + loss - gain at the channel
    whose frequency term is freq_loss_db, reaches ceiling_dbm: the free-space distance d_free below the
    regime threshold, else the clutter regime's d_clutter but not under the threshold (up to rounding)."""
    budget = ceiling_dbm - (noise_dbm + limit_db) + gain_dbi - freq_loss_db - 32.45
    free, threshold = 1000.0 * 10.0 ** (budget / 20.0), pcfg.regime_threshold_m
    if free < threshold:
        return free
    clutter = 1000.0 * 10.0 ** ((budget - pcfg.clutter_offset_db) / 20.0)
    return clutter if clutter > threshold else threshold


class KeepOutCells(NamedTuple):
    """keep_out_cells' cells in ascending order of (west, south) edge, their largest reach, and per AP cell
    (west, south) its candidate list (rows_within), built on that cell's first inquiry."""

    cells: tuple
    reach: float
    lists: dict


def keep_out_cells(rows, pcfg: PropagationConfig, limit_db: float, ceiling_dbm: float) -> KeepOutCells:
    """Rows by the 1 degree cell of their receiver.

    Per cell: its south and west edges, the smaller cosine of its latitude
    edges, its reach, and one entry per row in descending order of radius,
    (radius, row, side-lobe radius, beam terms). The candidate lists of
    rows_within are built from the entries. A row's radius is its
    keep_out_radius_m at main gain and f_lo, widened by 1e-9 and 1 m for
    rounding, beyond which walk_links drops it; its side-lobe radius is the
    same at the side-lobe gain, beyond which the walk drops it off the main
    beam, and never above the radius. A cell's reach is the largest of its
    radii. Rows of equal radius keep the order of rows (the sort is stable).
    A row's beam terms are the six floats of its beam normals (beam_normals),
    read from the row.

    Measured on a shared 2-vCPU host over tests/check_keep_out_scale.py's 100k
    links (medians of 6 runs): the cells build in 0.086 s (the minimum of 5
    builds) and, with the candidate lists of its 50 inquiries (86 cells and
    685 entries each), hold 12.5 MiB (tracemalloc). Once the lists are built,
    rows_within takes about 80 us per inquiry, against 1.0 ms for the scan by
    main-lobe radius of tests/reference_prune.py; the first inquiry from an
    AP cell takes about 2 ms with its list's build. Entries made cell by cell
    rather than in the order of rows lie together in memory, which cuts
    rows_within there by about a fifth.
    """
    floor = math.floor
    grid: defaultdict[tuple[int, int], list] = defaultdict(list)
    for row in rows:
        grid[floor(row[4]), floor(row[3])].append(row)
    cells = []
    for (w, s), members in sorted(grid.items()):
        # A cell's entries are made together, so they lie together in memory.
        entries = []
        for row in members:
            _, f_lo, _, _, _, _, _, noise, main, side, _, _, nlx, nly, nlz, nrx, nry, nrz = row
            radius = keep_out_radius_m(noise, main, f_lo, pcfg, limit_db, ceiling_dbm) * (1.0 + 1e-9) + 1.0
            side = keep_out_radius_m(noise, side, f_lo, pcfg, limit_db, ceiling_dbm) * (1.0 + 1e-9) + 1.0
            # The side-lobe gain is never above the main gain; the min keeps that order through pow's rounding.
            entries.append((radius, row, min(side, radius), nlx, nly, nlz, nrx, nry, nrz))
        entries.sort(key=itemgetter(0), reverse=True)
        cos_min = min(math.cos(s * _RAD), math.cos(min(s + 1, 90) * _RAD))
        cells.append((s, w, cos_min, entries[0][0], tuple(entries)))
    return KeepOutCells(tuple(cells), max((cell[3] for cell in cells), default=0.0), {})


def _window(cells, lat: float, lon: float, cos_ap: float, theta: float) -> tuple[float, float]:
    """The west edges [lo, hi] of the cells (at least one) that meet the longitude window of the cap of
    theta rad around the AP, or (-inf, inf) for every cell.

    The window holds the cells within asin(sin theta / cos lat_ap) of the AP in longitude, widened by
    their 1 degree width. Every cell is looked at when theta >= 90 deg - |lat_ap|, where the window
    would hold a pole, or when the window reaches +-180 deg. The window is never narrower than theta
    itself, so where that already spans every cell (a world of a few cells, as each scenario run has)
    it would skip none and is not worked out.
    """
    span = theta * _DEG
    if (lon - span - 1.0 > cells[0][1] or lon + span < cells[-1][1]) and theta < (90.0 - abs(lat)) * _RAD:
        # The two sides of the test above round apart, and asin is undefined beyond 1.
        x = math.sin(theta) / cos_ap
        width = math.asin(x if x < 1.0 else 1.0) * _DEG
        # The cell whose west edge is 180 spans -180..-179, so the window must also stay clear of -179.
        if lon - width - 1.0 > -180.0 and lon + width < 180.0:
            return lon - width - 1.0, lon + width
    return -math.inf, math.inf


def _cell_bound(lat, lon, cos_ap, south, west, cos_min, reach, contraction_m) -> float:
    """The lower bound on the contracted distance from the AP to the rows of a cell: -inf for a cell
    that holds the AP, and inf for one that R dlat already puts beyond its reach (rows_within)."""
    sin = math.sin
    dlat = (south - lat) * _RAD if south > lat else max(lat - south - 1.0, 0.0) * _RAD
    if EARTH_RADIUS_M * dlat * (1.0 - 1e-9) - 1.0 - contraction_m > reach:
        return math.inf
    dlon = (lon - west) % 360.0
    if dlon > 1.0:
        dlon = dlon - 1.0 if dlon < 180.5 else 360.0 - dlon
        h = sin(dlat * 0.5) ** 2 + cos_ap * cos_min * sin(dlon * _RAD * 0.5) ** 2
    elif dlat == 0.0:
        return -math.inf
    else:
        h = sin(dlat * 0.5) ** 2
    if h > 1.0:
        h = 1.0
    return _TWO_R * math.atan2(math.sqrt(h), math.sqrt(1.0 - h)) * (1.0 - 1e-9) - 1.0 - contraction_m


def _candidates(cells, west_ap: int, south_ap: int, contraction_m: float) -> tuple:
    """The candidate list of the AP cell (west_ap, south_ap) for contraction_m: (limit, listed), with limit
    the smallest key it left out (rows_within).

    Per cell, L is a lower bound on the cell bound plus contraction_m from every point of the AP cell: the
    haversine term of the two cells' latitude and longitude gaps, with the smaller latitude cosines of
    both, widened by 2e-9 for rounding. The cell-level beam test: for both beam normals n of a row,
    n.c + h >= -_BEAM_EPS, with c the unit vector of the AP cell's centre and h a bound on the chord from
    c to any point of the cell (its chord to a corner on the edge nearer the equator, widened for
    rounding). As n.p <= n.c + |n| |p - c| for the AP's unit vector p, a row that fails it is off the main
    beam for every AP in the cell, where only its side-lobe radius can reach. So a row's key is L - radius
    when it passes the test and L - side-lobe radius when it fails, and a row is listed when its key is at
    most contraction_m: the list holds every row that an inquiry from the cell with a contraction below
    limit may hand over. A cell out of reach counts by a lower bound on its keys, L - reach, or R times the
    latitude gap in place of L.

    Per cell with a listed row: (L, south, west, cos_min, reach, sides, beams), with sides the listed
    entries that fail the test in descending order of side-lobe radius, and beams those that pass it in
    descending order of radius; each entry is the cell's own.
    """
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    north_ap = min(south_ap + 1, 90)
    middle, centre = (south_ap + north_ap) / 2.0 * _RAD, (west_ap + 0.5) * _RAD
    cx, cy, cz = cos(middle) * cos(centre), cos(middle) * sin(centre), sin(middle)
    cos_s, cos_n = cos(south_ap * _RAD), cos(north_ap * _RAD)
    # The chord 2 sqrt(h) from c to a corner, by the haversine term; the corners on the edge nearer the
    # equator are the furthest.
    h = sin((north_ap - south_ap) * 0.25 * _RAD) ** 2 + cos(middle) * max(cos_s, cos_n) * sin(0.25 * _RAD) ** 2
    slack = -_BEAM_EPS - (2.0 * sqrt(h) * (1.0 + 1e-9) + 1e-12)
    cos_min_ap = min(cos_s, cos_n)
    limit = math.inf
    listed = []
    for south, west, cos_min, reach, entries in cells:
        gap_lat = max(south - south_ap - 1, south_ap - south - 1, 0) * _RAD
        low = EARTH_RADIUS_M * gap_lat * (1.0 - 3e-9) - 1.0
        if low - reach > contraction_m:
            limit = min(limit, low - reach)
            continue
        gap_lon = (west - west_ap) % 360
        gap_lon = max(min(gap_lon, 360 - gap_lon) - 1, 0) * _RAD
        h = sin(gap_lat * 0.5) ** 2 + cos_min_ap * cos_min * sin(gap_lon * 0.5) ** 2
        if h > 1.0:
            h = 1.0
        low = _TWO_R * math.atan2(sqrt(h), sqrt(1.0 - h)) * (1.0 - 2e-9) - 1.0
        sides, beams = [], []
        for entry in entries:  # the radius descends
            radius, _, side, nlx, nly, nlz, nrx, nry, nrz = entry
            if low - radius > contraction_m:
                limit = min(limit, low - radius)
                break
            if nlx * cx + nly * cy + nlz * cz >= slack and nrx * cx + nry * cy + nrz * cz >= slack:
                beams.append(entry)
            elif low - side <= contraction_m:
                sides.append(entry)
            else:
                limit = min(limit, low - side)
        if sides or beams:
            sides.sort(key=itemgetter(2), reverse=True)
            listed.append((low, south, west, cos_min, reach, tuple(sides), tuple(beams)))
    return limit, tuple(listed)


def rows_within(index: KeepOutCells, ap_pos: GeoPoint, contraction_m: float) -> list:
    """The rows of index that walk_links may keep toward ap_pos, by a lower bound on their contracted distance.

    Per cell, the haversine term of its nearest point, h = sin^2(dlat/2) + cos(lat_ap) cos_min sin^2(dlon/2)
    with dlat its latitude gap and dlon its longitude gap taken on the circle, gives the cell bound
    2R atan2(sqrt h, sqrt(1 - h)) (1 - 1e-9) - 1 m - contraction_m, with a margin for rounding (_cell_bound).
    A row is handed over when the bound is at most its radius and also at most its side-lobe radius, or its
    main beam may hold ap_pos (the beam test below). A cell that holds ap_pos hands over all its rows, and a
    cell is skipped at once when R dlat in place of the distance puts the bound beyond its reach. Only the
    cells that meet the longitude window of the largest radius are looked at (_window).

    The rows come from the candidate list of the AP's 1 degree cell (_candidates), kept in index.lists and
    built on the cell's first inquiry: per cell within reach of the AP cell, its L, a lower bound on the cell
    bound plus contraction_m, and its listed entries in two groups. A list built for a contraction holds
    every row it may hand over up to it and records the smallest key it left out; an inquiry whose
    contraction reaches that key builds it again, so a list grows with the contractions its cell sees. Per
    listed cell in the window, an inquiry hands over from the side group, whose rows are off the main beam
    for every AP in the cell, the prefix whose side-lobe radius reaches the bound; and from the beam group,
    the rows of the prefix whose radius reaches it that pass the beam test or whose side-lobe radius
    reaches it too. As the bound is at least L - contraction_m, it is worked out only for a cell with a row
    that could still be handed over by that lower bound: the side group's first, or a row of the beam
    group that passes the beam test or whose side-lobe radius reaches L - contraction_m. An inquiry reads
    its list from index.lists once, and each list stored is complete below its own limit, so threads that
    race to build one cost a second build, never a row.

    The beam test, which walk_links shares. With p the AP's unit vector, the row's beam normals give
    n_l.p = r sin(hb + d) and n_r.p = r sin(hb - d) (beam_normals), with r the sine of the central angle
    and d the signed angle from the azimuth to the bearing; for hb < 90 deg both are >= 0 exactly when
    the AP is in the main beam. A row is left out only when one of them falls below -eps: the walk then
    takes the side-lobe gain by the same test, and as the row also lies beyond its side-lobe radius the
    walk drops it. A row with zero terms is never left out. eps is in the units of p and of the walk's
    bearing numerators x = E.p and y = N.p, as is the rounding of these dot products and of x and y (a
    few 1e-16 each). So a product below -eps puts the AP off the beam, and both above eps put it inside,
    by more than about eps / r >= 1e-12 rad: far above what the walk's bearing in degrees, its azimuth
    and its half beamwidth round by (about 1e-14 rad, and the rounding of x and y over r), so where the
    normals decide, the bearing would decide alike. A beam test widened to cover a reported uncertainty
    region would widen this test's slack, the list's cell-level slack and its keys alike.
    """
    cells, largest, lists = index
    if not cells:
        return []
    cos, sin, floor = math.cos, math.sin, math.floor
    lat, lon = ap_pos.lat_deg, ap_pos.lon_deg
    key = (floor(lon), floor(lat))
    built = lists.get(key)
    if built is None or contraction_m >= built[0]:
        built = lists[key] = _candidates(cells, *key, contraction_m)
    cos_ap = cos(lat * _RAD)
    west_lo, west_hi = _window(cells, lat, lon, cos_ap, (largest + contraction_m) / EARTH_RADIUS_M)
    # The AP's unit vector.
    px, py, pz = cos_ap * cos(lon * _RAD), cos_ap * sin(lon * _RAD), sin(lat * _RAD)
    slack = -_BEAM_EPS
    near: list = []
    keep = near.append
    for low, south, west, cos_min, reach, sides, beams in built[1]:
        if not west_lo <= west <= west_hi:
            continue
        least = low - contraction_m
        bound = None
        if sides and sides[0][2] >= least:
            bound = _cell_bound(lat, lon, cos_ap, south, west, cos_min, reach, contraction_m)
            for entry in sides:
                if entry[2] < bound:
                    break
                keep(entry[1])
        for radius, row, side, nlx, nly, nlz, nrx, nry, nrz in beams:
            if radius < least:
                break
            if nlx * px + nly * py + nlz * pz < slack or nrx * px + nry * py + nrz * pz < slack:
                # Off the main beam, where only the side-lobe radius reaches.
                if side < least:
                    continue
                radius = side
            if bound is None:
                bound = _cell_bound(lat, lon, cos_ap, south, west, cos_min, reach, contraction_m)
            if radius >= bound:
                keep(row)
    return near


def _one_row_budget(link: FsLink, ap_pos: GeoPoint, pcfg: PropagationConfig) -> LinkBudget:
    """The link's budget toward ap_pos at max(1 m, distance): walk_links over its row alone."""
    ((_, _, _, budget),) = walk_links((link_row(0, 0.0, (), link),), ap_pos, 0.0, pcfg, 0.0, math.inf)
    return budget


def max_permissible_eirp_dbm(
    link: FsLink, ap_pos: GeoPoint, ch: ChannelId, pcfg: PropagationConfig, prot: ProtectionConfig
) -> float | None:
    """Highest AP EIRP keeping I/N at the link within the protection limit.

    Returns None (channel unavailable) when that cap, the link's raw EIRP
    or the ceiling if lower, falls below the useful minimum. Path loss is
    evaluated at the channel's center frequency, as a grant's is.
    """
    caps = [prot.regulatory_max_eirp_dbm]
    f = frequency_loss_db(center_frequency_mhz(ch))
    _one_row_budget(link, ap_pos, pcfg).lower_caps(caps, (0,), (f,), prot.i_over_n_limit_db)
    return caps[0] if caps[0] >= prot.min_useful_eirp_dbm else None


def i_over_n_db(link: FsLink, ap_pos: GeoPoint, ch: ChannelId, eirp_dbm: float, pcfg: PropagationConfig) -> float:
    """Interference-to-noise ratio at the link for a transmission from ap_pos."""
    return _one_row_budget(link, ap_pos, pcfg).i_over_n_db(frequency_loss_db(center_frequency_mhz(ch)), eirp_dbm)


def constrains(link: FsLink, ch: ChannelId) -> bool:
    """True iff the channel's span overlaps the link's licensed range."""
    return overlaps(channel_span(ch), link.freq_range)
