"""Standard-power AP client: state machine, compliance, console reports.

The AP is a functional state machine: every transition takes a state and
returns a new one, so scenario execution can snapshot and replay freely.
The AP trusts its GNSS receiver completely (it is the unaltered victim),
enforces grant expiry against its own clock (which an attacker may have
shifted), and renders the operator-console channel report.
"""

from __future__ import annotations

import enum
import math
import textwrap
from dataclasses import dataclass

from .channels import SUPPORTED_BANDWIDTHS_MHZ, ChannelId
from .errors import NoFixAvailable
from .gnss import GnssFix
from .server import (
    ChannelGrant,
    ResponseCode,
    SpectrumInquiryRequest,
    SpectrumInquiryResponse,
)
from .wire import epoch_to_clock


class ApPhase(enum.Enum):
    NO_FIX = "NO_FIX"
    FIX_ACQUIRED = "FIX_ACQUIRED"
    REQUEST_PENDING = "REQUEST_PENDING"
    AUTHORIZED = "AUTHORIZED"
    DENIED = "DENIED"
    EXPIRED = "EXPIRED"


@dataclass(frozen=True)
class ApConfig:
    serial: str
    certification_id: str
    height_m: float = 3.0
    refresh_interval_s: float = 86_400.0
    inquired_bandwidths: tuple[int, ...] = SUPPORTED_BANDWIDTHS_MHZ

    def __post_init__(self):
        # False for NaN, and infinity is out of range.
        if not (0.0 <= self.height_m < math.inf):
            raise ValueError("height must be finite and >= 0")
        if not (0.0 < self.refresh_interval_s <= 86_400.0):
            raise ValueError("refresh interval must be positive and at most one day")


@dataclass(frozen=True)
class ApState:
    # Transitions build states positionally in this field order (a third of the cost of dataclasses.replace).
    phase: ApPhase = ApPhase.NO_FIX
    last_fix: GnssFix | None = None
    grants: SpectrumInquiryResponse | None = None  # the SUCCESS response in force
    local_clock_offset_s: float = 0.0
    last_issue_time: float | None = None


def local_now(state: ApState, true_now: float) -> float:
    return true_now + state.local_clock_offset_s


def acquire_fix(state: ApState, fix: GnssFix | None) -> ApState:
    """Record a (possibly absent) GNSS fix.

    Losing the fix forbids transmission; gaining one does not by itself
    revoke an existing authorization.
    """
    if fix is None:
        return ApState(ApPhase.NO_FIX, None, state.grants, state.local_clock_offset_s, state.last_issue_time)
    phase = state.phase if state.phase is ApPhase.AUTHORIZED else ApPhase.FIX_ACQUIRED
    return ApState(phase, fix, state.grants, state.local_clock_offset_s, state.last_issue_time)


def set_clock_offset(state: ApState, offset_s: float) -> ApState:
    return ApState(state.phase, state.last_fix, state.grants, offset_s, state.last_issue_time)


def build_inquiry(cfg: ApConfig, fix: GnssFix | None, request_id: str = "") -> SpectrumInquiryRequest:
    """Build the spectrum inquiry for the current fix.

    The reported location is the fix ellipse verbatim; the AP has no way
    to tell a captured fix from a real one.
    """
    if fix is None:
        raise NoFixAvailable("cannot build an inquiry without a GNSS fix")
    if not request_id:
        request_id = f"{cfg.serial}-{int(fix.ellipse.gps_time)}"
    return SpectrumInquiryRequest(
        request_id=request_id,
        device_serial=cfg.serial,
        certification_id=cfg.certification_id,
        location=fix.ellipse,
        height_m=cfg.height_m,
        inquired_bandwidths=cfg.inquired_bandwidths,
        transport_authenticated=True,
    )


def submit_inquiry(
    state: ApState, cfg: ApConfig, request_id: str = ""
) -> tuple[ApState, SpectrumInquiryRequest]:
    """Transition to REQUEST_PENDING, producing the request to send."""
    req = build_inquiry(cfg, state.last_fix, request_id)
    pending = ApState(
        ApPhase.REQUEST_PENDING, state.last_fix, state.grants, state.local_clock_offset_s, state.last_issue_time
    )
    return pending, req


def apply_response(state: ApState, resp: SpectrumInquiryResponse, local_now_s: float) -> ApState:
    """Apply the coordination response: authorization or denial.

    A response whose grants are already expired by the AP's own clock
    lands directly in EXPIRED.
    """
    if resp.response_code is ResponseCode.SUCCESS:
        if local_now_s >= resp.expire_time:
            return ApState(ApPhase.EXPIRED, state.last_fix, None, state.local_clock_offset_s, resp.issue_time)
        return ApState(ApPhase.AUTHORIZED, state.last_fix, resp, state.local_clock_offset_s, resp.issue_time)
    return ApState(ApPhase.DENIED, state.last_fix, None, state.local_clock_offset_s, state.last_issue_time)


def tick(state: ApState, true_now: float) -> ApState:
    """Advance the AP's clock-driven behavior to a true time.

    Expiry is judged against the AP's local clock; shifting that clock
    backward is exactly what keeps a stale authorization alive.
    """
    if state.phase is ApPhase.AUTHORIZED and state.grants is not None:
        if local_now(state, true_now) >= state.grants.expire_time:
            return ApState(ApPhase.EXPIRED, state.last_fix, None, state.local_clock_offset_s, state.last_issue_time)
    return state


def refresh_due(state: ApState, cfg: ApConfig, true_now: float) -> bool:
    """Whether the AP's own schedule calls for a re-inquiry."""
    if state.last_issue_time is None:
        return False
    return local_now(state, true_now) >= state.last_issue_time + cfg.refresh_interval_s


def can_transmit(state: ApState, ch: ChannelId, eirp_dbm: float) -> bool:
    """True iff transmitting on ch at eirp_dbm is within the authorization."""
    if state.phase is not ApPhase.AUTHORIZED or state.grants is None:
        return False
    for g in state.grants.grants:
        if g.channel == ch:
            return eirp_dbm <= g.max_eirp_dbm
    return False


def choose_transmit_channel(state: ApState) -> ChannelGrant | None:
    """Deterministic channel choice: widest, then strongest, then lowest cfi."""
    if state.phase is not ApPhase.AUTHORIZED or state.grants is None or not state.grants.grants:
        return None
    grants = state.grants.grants
    widest = max([g.channel.bandwidth_mhz for g in grants])
    widest_grants = [g for g in grants if g.channel.bandwidth_mhz == widest]
    return max(widest_grants, key=lambda g: (g.max_eirp_dbm, -g.channel.cfi, -(g.channel.variant or 0)))


# ---------------------------------------------------------------------------
# Console report rendering.

_PHY_ROWS: tuple[tuple[str, int, int | None], ...] = (
    ("6GHz", 20, None),
    ("6GHz 40MHz", 40, None),
    ("6GHz 80MHz", 80, None),
    ("6GHz 160MHz", 160, None),
    ("6GHz 80+80MHz", -1, None),  # composite rows are never authorized
    ("6GHz 320MHz_1", 320, 1),
    ("6GHz 320MHz_2", 320, 2),
)

_EIRP_ROWS: tuple[tuple[str, int, int | None], ...] = (
    ("20MHz channel", 20, None),
    ("40MHz channel", 40, None),
    ("80MHz channel", 80, None),
    ("160MHz channel", 160, None),
    ("320MHz_1 channel", 320, 1),
    ("320MHz_2 channel", 320, 2),
)

_VALUE_WRAP_WIDTH = 36
_EIRP_CHUNK = 21


def _grants_for(table: SpectrumInquiryResponse, bandwidth_mhz: int, variant: int | None) -> list[ChannelGrant]:
    return [
        g
        for g in table.grants
        if g.channel.bandwidth_mhz == bandwidth_mhz and g.channel.variant == variant
    ]


def _channel_rows(label_w: int, table: SpectrumInquiryResponse | None) -> list[str]:
    rows = []
    for label, bw, variant in _PHY_ROWS:
        values: list[int] = []
        if table is not None and bw > 0:
            values = [g.channel.cfi for g in _grants_for(table, bw, variant)]
        if not values:
            rows.append(f"{label:<{label_w}}None")
            continue
        wrapped = textwrap.wrap(" ".join(str(v) for v in values), width=_VALUE_WRAP_WIDTH)
        rows.append(f"{label:<{label_w}}{wrapped[0]}")
        rows.extend(" " * label_w + line for line in wrapped[1:])
    return rows


def _eirp_block(table: SpectrumInquiryResponse) -> list[str]:
    rows = ["Max EIRP of AFC channel"]
    for label, bw, variant in _EIRP_ROWS:
        grants = _grants_for(table, bw, variant)
        for start in range(0, len(grants), _EIRP_CHUNK):
            chunk = grants[start : start + _EIRP_CHUNK]
            rows.append(f"{label:<16}" + "".join(f"{g.channel.cfi:>5}" for g in chunk))
            rows.append(f"{'Max Eirp':<18}" + " ".join(f"{g.max_eirp_dbm:.1f}" for g in chunk))
    return rows


def render_channel_report(state: ApState, now: float) -> str:
    """The operator-console channel report for the AP's current state.

    Authorized reports list per-bandwidth channels plus the max-EIRP
    table; every other phase renders the all-None denied layout.
    """
    authorized = state.phase is ApPhase.AUTHORIZED and state.grants is not None
    label_w = 23 if authorized else 26
    table = state.grants if authorized else None

    lines = ["Received afc channels", "-" * 22]
    lines.append(f"{'PHY Type':<{label_w}}Allowed Channels")
    lines.append(f"{'--------':<{label_w}}----------------")
    lines.extend(_channel_rows(label_w, table))
    lines.append(f"{'Present time':<{label_w}}{epoch_to_clock(now)}")
    expiry = epoch_to_clock(table.expire_time) if authorized else "None"
    lines.append(f"{'Expiry time':<{label_w}}{expiry}")
    country = table.country_code if authorized and table.country_code else "None"
    lines.append(f"{'Country code':<{label_w}}{country}")
    lines.append(f"{'AFC channel expired':<{label_w}}{'No' if authorized else 'Yes'}")
    lines.append(f"{'AFC channel required':<{label_w}}Yes")

    if authorized:
        lines.append("")
        lines.extend(_eirp_block(table))
    return "\n".join(lines) + "\n"
