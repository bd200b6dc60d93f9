"""AFC coordination service core.

Validates spectrum-inquiry requests, consults the incumbent database and
exclusion zones, and computes per-channel grants with a fixed lifetime.
Everything here is pure: the wire layer owns transport and time sourcing,
so identical (request, server_now, database, configs) always produce the
identical response.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property

from .channels import (
    BANDS,
    CHANNEL_POSITION,
    CHANNELS,
    SUPPORTED_BANDWIDTHS_MHZ,
    ChannelId,
    FrequencyRange,
    channel_positions,
)
from .channels import channel_span  # noqa: F401  (perfbench/tracing.py counts calls through this name)
from .errors import UnsupportedBandwidth
from .geo import Geofence, GeoPoint, LocationEllipse, within_geofence
from .geo import haversine_distance  # noqa: F401  (perfbench/tracing.py counts calls through this name)
from .propagation import (
    FREQ_LOSS_DB,
    MAX_EIRP_DBM,
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    keep_out_cells,
    link_row,
    rows_within,
    walk_links,
)
from .propagation import (  # noqa: F401  (perfbench/tracing.py counts calls through these names)
    constrains,
    max_permissible_eirp_dbm,
)

# The epoch seconds that wire.epoch_to_iso and wire.epoch_to_clock can render:
# years 1 to 9999, UTC. They live here because a successful response's times
# must be dates.
_FIRST_DATE_S = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
_END_DATE_S = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp() + 1.0


def is_date(epoch_s: float) -> bool:
    """True iff wire.epoch_to_iso and wire.epoch_to_clock can render epoch_s."""
    return _FIRST_DATE_S <= epoch_s < _END_DATE_S


class ResponseCode(enum.Enum):
    SUCCESS = "SUCCESS"
    OUTSIDE_COVERAGE = "OUTSIDE_COVERAGE"
    STALE_TIMESTAMP = "STALE_TIMESTAMP"
    INVALID_REQUEST = "INVALID_REQUEST"
    DEVICE_DISALLOWED = "DEVICE_DISALLOWED"


@dataclass(frozen=True)
class CoverageBox:
    """A latitude/longitude bounding box of the service territory."""

    lat_min_deg: float
    lat_max_deg: float
    lon_min_deg: float
    lon_max_deg: float

    def __post_init__(self):
        bounds = (self.lat_min_deg, self.lat_max_deg, self.lon_min_deg, self.lon_max_deg)
        if not all(-math.inf < b < math.inf for b in bounds):
            raise ValueError("coverage box bounds must be finite")
        if self.lat_min_deg > self.lat_max_deg or self.lon_min_deg > self.lon_max_deg:
            raise ValueError("coverage box bounds are inverted")

    def contains(self, p: GeoPoint) -> bool:
        return (
            self.lat_min_deg <= p.lat_deg <= self.lat_max_deg
            and self.lon_min_deg <= p.lon_deg <= self.lon_max_deg
        )


# Contiguous-US service territory, generous enough for every bundled world.
CONUS = CoverageBox(24.5, 49.5, -125.0, -66.9)


# The longest grant a policy may set: one year. A longer one could carry an
# expiry past year 9999, which no response can put on the wire.
MAX_GRANT_LIFETIME_S = 365 * 86_400.0


@dataclass(frozen=True)
class ServerPolicy:
    grant_lifetime_s: float = 86_400.0
    gps_timestamp_tolerance_s: float = 60.0
    coverage: tuple[CoverageBox, ...] = (CONUS,)
    geofence_registry: dict[str, Geofence] = field(default_factory=dict)

    def __post_init__(self):
        # Range tests as in FsLink: false for NaN, and infinity is out of range.
        if not (-math.inf < self.grant_lifetime_s < math.inf):
            raise ValueError("grant lifetime must be finite")
        if self.grant_lifetime_s <= 0.0:
            raise ValueError("grant lifetime must be > 0")
        if self.grant_lifetime_s > MAX_GRANT_LIFETIME_S:
            raise ValueError(f"grant lifetime must be at most {MAX_GRANT_LIFETIME_S:g} s (one year)")
        if not (-math.inf < self.gps_timestamp_tolerance_s < math.inf):
            raise ValueError("timestamp tolerance must be finite")
        if self.gps_timestamp_tolerance_s < 0.0:
            raise ValueError("timestamp tolerance must be >= 0")


@dataclass(frozen=True)
class ExclusionZone:
    """A region where channels overlapping the banned range are never granted."""

    zone: Geofence
    banned: FrequencyRange


@dataclass(frozen=True)
class IncumbentDatabase:
    fs_links: tuple[FsLink, ...] = ()
    exclusion_zones: tuple[ExclusionZone, ...] = ()

    @cached_property
    def link_rows(self) -> tuple[tuple, ...]:
        """Per link that any authorized channel overlaps, in database order, its
        compiled row (propagation.link_row): the link index, the smallest
        frequency term among those channels, their positions in CHANNELS
        (channel_positions of its range), and the link's fixed geometry,
        noise and gain terms.

        Built on first use and cached on this instance, so a database made
        with dataclasses.replace starts without one.
        """
        rows = []
        for i, link in enumerate(self.fs_links):
            positions = channel_positions(link.freq_range)
            if positions:
                rows.append(link_row(i, min(FREQ_LOSS_DB[p] for p in positions), positions, link))
        return tuple(rows)

    @cached_property
    def keep_out_cells(self) -> dict:
        """Per (pcfg, limit, ceiling), link_rows in propagation.keep_out_cells, built on that key's first inquiry.

        Only a database of at least INDEX_MIN_ROWS compiled rows has cells:
        compute_availability walks a smaller one whole, without reading this
        property. The useful minimum does not enter the cells, so protection
        configs that differ only there share them. Each holds the main-beam
        lists that propagation.rows_within builds on the first inquiry from
        each AP cell.
        """
        return {}


@dataclass(frozen=True)
class World:
    """What the service answers a reported location against: the incumbent
    database, the policy, and the propagation and protection criteria.

    wire.decode_world builds one from a scenario's world object or a CLI
    world file; a part the document omits keeps its model's default.
    """

    database: IncumbentDatabase = IncumbentDatabase()
    policy: ServerPolicy = ServerPolicy()
    propagation: PropagationConfig = PropagationConfig()
    protection: ProtectionConfig = ProtectionConfig()


@dataclass(frozen=True)
class SpectrumInquiryRequest:
    request_id: str
    device_serial: str
    certification_id: str
    location: LocationEllipse
    height_m: float
    inquired_bandwidths: tuple[int, ...]
    transport_authenticated: bool


@dataclass(frozen=True)
class ChannelGrant:
    channel: ChannelId
    max_eirp_dbm: float

    def __post_init__(self):
        if not math.isfinite(self.max_eirp_dbm):
            raise ValueError("grant EIRP must be finite")
        if self.max_eirp_dbm > MAX_EIRP_DBM:
            raise ValueError(f"grant exceeds the {MAX_EIRP_DBM} dBm regulatory ceiling")


@dataclass(frozen=True)
class SpectrumInquiryResponse:
    request_id: str
    response_code: ResponseCode
    country_code: str | None = None
    grants: tuple[ChannelGrant, ...] = ()
    issue_time: float | None = None
    expire_time: float | None = None

    def __post_init__(self):
        if self.response_code is ResponseCode.SUCCESS:
            if self.issue_time is None or self.expire_time is None:
                raise ValueError("successful responses carry issue and expire times")
        else:
            if self.grants or self.expire_time is not None:
                raise ValueError("rejections carry no grants and no expiry")


def validate_request(
    req: SpectrumInquiryRequest, server_now: float, policy: ServerPolicy
) -> ResponseCode | None:
    """Screen a request; None means acceptable, otherwise the rejection code.

    Checks run in fixed order: GPS-timestamp freshness, device
    authorization (transport authentication, then any registered
    geofence), service-territory coverage, and finally field validity.
    """
    if abs(req.location.gps_time - server_now) > policy.gps_timestamp_tolerance_s:
        return ResponseCode.STALE_TIMESTAMP
    if not req.transport_authenticated:
        return ResponseCode.DEVICE_DISALLOWED
    fence = policy.geofence_registry.get(req.device_serial)
    if fence is not None and not within_geofence(req.location.center, fence):
        return ResponseCode.DEVICE_DISALLOWED
    if not any(box.contains(req.location.center) for box in policy.coverage):
        return ResponseCode.OUTSIDE_COVERAGE
    if not req.request_id or not req.device_serial:
        return ResponseCode.INVALID_REQUEST
    if not req.inquired_bandwidths:
        return ResponseCode.INVALID_REQUEST
    if any(bw not in SUPPORTED_BANDWIDTHS_MHZ for bw in req.inquired_bandwidths):
        return ResponseCode.INVALID_REQUEST
    if not (math.isfinite(req.height_m) and req.height_m >= 0.0):
        return ResponseCode.INVALID_REQUEST
    # A grant's issue and expiry times go on the wire as dates.
    if not (is_date(server_now) and is_date(server_now + policy.grant_lifetime_s)):
        return ResponseCode.INVALID_REQUEST
    return None


def quantize_grant_dbm(eirp_dbm: float) -> float:
    """Floor to the wire quantum so serialization never rounds a grant up."""
    return math.floor(eirp_dbm * 100.0 + 1e-9) / 100.0


# compute_availability walks a database of fewer compiled rows than this whole, and
# builds no keep-out cells for it: there the cells and rows_within cost more than they
# skip. Timed on a 2-vCPU host over 29 inquiries (26 within 25 km of the links' centre,
# 3 from 500-2,000 km), cell build included, as the mean over 5 worlds of the median of
# 30 fresh copies: with links within 25 km the whole walk is faster at every size from 8
# to 256 links (1.22 against 1.37 ms at 32); with links within 200 km it is faster up to
# 32 links (0.76 against 0.86 ms) and slower from 48 (1.12 against 1.06 ms). The worlds
# of the scenario_sweep benchmark hold at most 30 links and 27 rows; inquiry_conus holds
# 739 rows.
INDEX_MIN_ROWS = 32


# The shared ceiling grants: per quantized ceiling, one grant per channel position,
# handed to every request at that ceiling. A new ceiling publishes a new dict and
# never grows a published one, so a reader (wire.dumps_response) may iterate
# whatever dict it read. Past 16 ceilings the new dict starts empty, since
# tests/worldgen.py draws a ceiling per world.
CEILING_GRANTS: dict[float, tuple[ChannelGrant, ...]] = {}


def _ceiling_grants(eirp: float) -> tuple[ChannelGrant, ...]:
    """The shared grants at eirp, a quantized ceiling, from CEILING_GRANTS or made and published.

    Two threads that miss at once each publish their own tuple, and one of the
    two dicts is lost: its grants then sit in no table, and wire writes them as
    any other grant. No published dict holds a wrong entry or ever changes.
    """
    global CEILING_GRANTS
    table = CEILING_GRANTS
    grants = table.get(eirp)
    if grants is None:
        grants = tuple(ChannelGrant(ch, eirp) for ch in CHANNELS)
        CEILING_GRANTS = {**(table if len(table) < 16 else {}), eirp: grants}
    return grants


def compute_availability(
    loc: LocationEllipse,
    bandwidths,
    db: IncumbentDatabase,
    pcfg: PropagationConfig,
    prot: ProtectionConfig,
) -> list[ChannelGrant]:
    """Per-channel grants for a reported location, ordered by bandwidth then cfi.

    A channel's fate is its cap alone. Caps start at the ceiling; an
    exclusion zone holding the reported center sets the caps of the channels
    its banned range overlaps to -inf; each co-channel link lowers a cap to
    its permissible EIRP at the uncertainty-contracted distance max(1 m,
    distance - major_axis_m). A cap below the useful minimum withholds its
    channel, a cap at the ceiling takes the shared ceiling grant, and any
    other is quantized and granted if it still reaches the useful minimum.

    The walk drops on one rule, so it yields exactly the links that lower a
    cap. A database of fewer than INDEX_MIN_ROWS compiled rows is walked
    whole. From that size on, rows_within over db.keep_out_cells skips a
    link whose keep-out radius falls short of the distance bound of its 1
    degree cell, or whose cell lies outside the longitude window of the
    largest radius, and one whose side-lobe radius falls short of that bound
    while the AP lies off its main beam. It finds the rest by lobe, in a
    side-lobe scan of the cells near the AP and in the main-beam list of the
    AP's cell. The prune skips only rows the walk drops, and caps are
    minima, so the grants do not depend on which of the two paths runs or
    on the order of the rows handed over.
    """
    bws = sorted(set(bandwidths))
    for bw in bws:
        if bw not in BANDS:
            raise UnsupportedBandwidth(f"unsupported bandwidth {bw} MHz")
    center = loc.center
    ceiling = prot.regulatory_max_eirp_dbm
    limit = prot.i_over_n_limit_db
    useful = prot.min_useful_eirp_dbm
    # Per channel position, its cap: the lowest permissible EIRP so far, -inf once banned.
    caps = [ceiling] * len(CHANNELS)
    for z in db.exclusion_zones:
        if within_geofence(center, z.zone):
            for p in channel_positions(z.banned):
                caps[p] = -math.inf
    rows = db.link_rows
    if len(rows) >= INDEX_MIN_ROWS:
        cells = db.keep_out_cells.get((pcfg, limit, ceiling))
        if cells is None:
            cells = db.keep_out_cells[pcfg, limit, ceiling] = keep_out_cells(rows, pcfg, limit, ceiling)
        rows = rows_within(cells, center, loc.major_axis_m)
    for _, f_lo, positions, budget in walk_links(rows, center, loc.major_axis_m, pcfg, limit, ceiling):
        budget.lower_caps(caps, positions, FREQ_LOSS_DB, limit)
    top = quantize_grant_dbm(ceiling)
    shared = _ceiling_grants(top) if top >= useful else None
    grants: list[ChannelGrant] = []
    for bw in bws:
        for p in BANDS[bw]:
            cap = caps[p]
            if cap < useful:
                continue
            if cap == ceiling:
                if shared is not None:
                    grants.append(shared[p])
                continue
            quantized = quantize_grant_dbm(cap)
            if quantized >= useful:
                grants.append(ChannelGrant(CHANNELS[p], quantized))  # positionally: keywords cost ~2 % of scenario_sweep
    return grants


def handle_inquiry(
    req: SpectrumInquiryRequest,
    server_now: float,
    db: IncumbentDatabase,
    policy: ServerPolicy,
    pcfg: PropagationConfig,
    prot: ProtectionConfig,
) -> SpectrumInquiryResponse:
    """Full inquiry handling: validation, availability, grant lifetime."""
    rejection = validate_request(req, server_now, policy)
    if rejection is not None:
        return SpectrumInquiryResponse(request_id=req.request_id, response_code=rejection)
    grants = compute_availability(req.location, req.inquired_bandwidths, db, pcfg, prot)
    return SpectrumInquiryResponse(
        request_id=req.request_id,
        response_code=ResponseCode.SUCCESS,
        country_code="US",
        grants=tuple(grants),
        issue_time=server_now,
        expire_time=server_now + policy.grant_lifetime_s,
    )


@dataclass(frozen=True)
class Divergence:
    """One disagreement between two worlds on one request."""

    request_id: str
    channel: ChannelId
    eirp_a_dbm: float | None
    eirp_b_dbm: float | None

    @property
    def delta_db(self) -> float | None:
        if self.eirp_a_dbm is None or self.eirp_b_dbm is None:
            return None
        return self.eirp_a_dbm - self.eirp_b_dbm


@dataclass(frozen=True)
class DivergenceReport:
    rows: tuple[Divergence, ...]
    tolerance_db: float

    @property
    def empty(self) -> bool:
        return not self.rows


def differential_compare(
    requests,
    world_a: World,
    world_b: World,
    tolerance_db: float = 0.1,
) -> DivergenceReport:
    """Compare the grants of two worlds over a request corpus; the policies are not read.

    Reports channels granted by exactly one world, and channels granted
    by both whose EIRPs differ by more than the tolerance. An empty report
    means the worlds agree everywhere. A request inquiring an unsupported
    bandwidth raises UnsupportedBandwidth naming that request.
    """
    rows: list[Divergence] = []
    for req in requests:
        loc, bws = req.location, req.inquired_bandwidths
        try:
            by_a, by_b = (
                {g.channel: g.max_eirp_dbm
                 for g in compute_availability(loc, bws, w.database, w.propagation, w.protection)}
                for w in (world_a, world_b)
            )
        except UnsupportedBandwidth as e:
            raise UnsupportedBandwidth(f"request {req.request_id}: {e}") from None
        for ch in sorted(set(by_a) | set(by_b), key=CHANNEL_POSITION.__getitem__):
            a = by_a.get(ch)
            b = by_b.get(ch)
            if a is None or b is None or abs(a - b) > tolerance_db:
                rows.append(Divergence(req.request_id, ch, a, b))
    return DivergenceReport(rows=tuple(rows), tolerance_db=tolerance_db)
