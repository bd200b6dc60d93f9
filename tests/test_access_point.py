"""AP state machine and the console channel report."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from afcsim import access_point as ap
from afcsim.channels import ChannelId, all_us_channels
from afcsim.errors import NoFixAvailable
from afcsim.geo import GeoPoint, LocationEllipse
from afcsim.gnss import LEGIT, GnssFix
from afcsim.server import ChannelGrant, ResponseCode, SpectrumInquiryResponse
from afcsim.wire import iso_to_epoch

GOLDEN = Path(__file__).parent / "golden"

CFG = ap.ApConfig(serial="AP-1", certification_id="CERT-AP-1")


def fix(gps_time=1000.0, center=GeoPoint(40.7934, -77.86)):
    return GnssFix(
        ellipse=LocationEllipse(center, 8.0, 2.0, 45.0, gps_time),
        winning_kind=LEGIT,
    )


def success(now=1000.0, grants=None, lifetime=86_400.0):
    if grants is None:
        grants = (ChannelGrant(ChannelId(20, 1), 36.0),)
    return SpectrumInquiryResponse(
        request_id="REQ-1",
        response_code=ResponseCode.SUCCESS,
        country_code="US",
        grants=grants,
        issue_time=now,
        expire_time=now + lifetime,
    )


def authorized_state(now=1000.0, grants=None, lifetime=86_400.0, offset=0.0):
    state = ap.ApState(local_clock_offset_s=offset)
    state = ap.acquire_fix(state, fix(gps_time=now))
    state, _ = ap.submit_inquiry(state, CFG)
    return ap.apply_response(state, success(now, grants, lifetime), now + offset)


# --- state machine --------------------------------------------------------


def test_initial_state_has_no_fix():
    state = ap.ApState()
    assert state.phase is ap.ApPhase.NO_FIX
    with pytest.raises(NoFixAvailable):
        ap.submit_inquiry(state, CFG)


def test_fix_acquisition_and_loss():
    state = ap.acquire_fix(ap.ApState(), fix())
    assert state.phase is ap.ApPhase.FIX_ACQUIRED
    state = ap.acquire_fix(state, None)
    assert state.phase is ap.ApPhase.NO_FIX
    assert state.last_fix is None


def test_fix_update_keeps_authorization():
    state = authorized_state()
    updated = ap.acquire_fix(state, fix(gps_time=2000.0))
    assert updated.phase is ap.ApPhase.AUTHORIZED
    assert updated.last_fix.ellipse.gps_time == 2000.0


def test_inquiry_carries_fix_ellipse_verbatim():
    f = fix(gps_time=123.0)
    req = ap.build_inquiry(CFG, f)
    assert req.location is f.ellipse
    assert req.request_id == "AP-1-123"
    assert req.device_serial == "AP-1"
    assert req.transport_authenticated
    assert req.inquired_bandwidths == (20, 40, 80, 160, 320)


def test_submit_then_success_authorizes():
    state = ap.acquire_fix(ap.ApState(), fix())
    state, req = ap.submit_inquiry(state, CFG, request_id="R-9")
    assert state.phase is ap.ApPhase.REQUEST_PENDING
    assert req.request_id == "R-9"
    state = ap.apply_response(state, success(), 1000.0)
    assert state.phase is ap.ApPhase.AUTHORIZED
    assert state.grants.country_code == "US"
    assert state.last_issue_time == 1000.0


def test_rejection_denies_and_clears_grants():
    state = authorized_state()
    rejection = SpectrumInquiryResponse("R", ResponseCode.OUTSIDE_COVERAGE)
    state = ap.apply_response(state, rejection, 2000.0)
    assert state.phase is ap.ApPhase.DENIED
    assert state.grants is None


def test_response_already_expired_by_local_clock():
    state = ap.acquire_fix(ap.ApState(local_clock_offset_s=90_000.0), fix())
    state, _ = ap.submit_inquiry(state, CFG)
    state = ap.apply_response(state, success(now=1000.0), local_now_s=91_000.0)
    assert state.phase is ap.ApPhase.EXPIRED


def test_tick_expires_at_boundary():
    state = authorized_state(now=1000.0)
    assert ap.tick(state, 1000.0 + 86_399.999).phase is ap.ApPhase.AUTHORIZED
    expired = ap.tick(state, 1000.0 + 86_400.0)
    assert expired.phase is ap.ApPhase.EXPIRED
    assert expired.grants is None


def test_rolled_back_clock_defeats_expiry():
    state = authorized_state(now=1000.0)
    state = ap.set_clock_offset(state, -172_800.0)
    still = ap.tick(state, 1000.0 + 90_000.0)
    assert still.phase is ap.ApPhase.AUTHORIZED
    assert ap.can_transmit(still, ChannelId(20, 1), 30.0)


def test_refresh_schedule():
    state = authorized_state(now=1000.0)
    assert not ap.refresh_due(state, CFG, 1000.0 + 86_399.0)
    assert ap.refresh_due(state, CFG, 1000.0 + 86_400.0)
    assert not ap.refresh_due(ap.ApState(), CFG, 1e9)  # never inquired


def test_can_transmit_respects_grant():
    grants = (ChannelGrant(ChannelId(40, 9), 24.5),)
    state = authorized_state(grants=grants)
    assert ap.can_transmit(state, ChannelId(40, 9), 24.5)
    assert not ap.can_transmit(state, ChannelId(40, 9), 24.51)
    assert not ap.can_transmit(state, ChannelId(40, 1), 10.0)
    denied = ap.apply_response(state, SpectrumInquiryResponse("R", ResponseCode.DEVICE_DISALLOWED), 0.0)
    assert not ap.can_transmit(denied, ChannelId(40, 9), 10.0)


def test_channel_choice_prefers_width_power_low_cfi():
    grants = (
        ChannelGrant(ChannelId(20, 1), 36.0),
        ChannelGrant(ChannelId(160, 1), 30.0),
        ChannelGrant(ChannelId(160, 33), 32.0),
        ChannelGrant(ChannelId(320, 1, 1), 25.0),
        ChannelGrant(ChannelId(320, 33, 2), 25.0),
    )
    state = authorized_state(grants=grants)
    chosen = ap.choose_transmit_channel(state)
    # Widest wins even at lower power; the variant-1 plan breaks the tie.
    assert chosen.channel == ChannelId(320, 1, 1)
    assert ap.choose_transmit_channel(ap.ApState()) is None


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(all_us_channels()), st.sampled_from([-10.0, 25.0, 36.0])), min_size=1))
def test_channel_choice_is_the_max_by_width_power_and_low_cfi(pairs):
    # Repeated channels and equal powers tie; the first of equal grants wins.
    grants = tuple(ChannelGrant(ch, eirp) for ch, eirp in pairs)
    want = max(grants, key=lambda g: (g.channel.bandwidth_mhz, g.max_eirp_dbm, -g.channel.cfi, -(g.channel.variant or 0)))
    assert ap.choose_transmit_channel(authorized_state(grants=grants)) is want


# --- console report -------------------------------------------------------


def test_authorized_report_matches_golden():
    grants = tuple(ChannelGrant(ch, 36.0) for ch in all_us_channels())
    issue = iso_to_epoch("2025-06-20T05:10:00Z")
    state = authorized_state(now=issue, grants=grants)
    text = ap.render_channel_report(state, iso_to_epoch("2025-06-20T05:13:13Z"))
    assert text == (GOLDEN / "authorized_report.txt").read_text()


def test_denied_report_matches_golden():
    state = ap.acquire_fix(ap.ApState(), fix())
    state, _ = ap.submit_inquiry(state, CFG)
    state = ap.apply_response(
        state, SpectrumInquiryResponse("R", ResponseCode.OUTSIDE_COVERAGE), 0.0
    )
    text = ap.render_channel_report(state, iso_to_epoch("2025-06-20T11:36:04Z"))
    assert text == (GOLDEN / "denied_report.txt").read_text()


def test_expired_report_renders_denied_shape():
    state = authorized_state(now=1000.0)
    state = ap.tick(state, 1_000_000.0)
    text = ap.render_channel_report(state, 1_000_000.0)
    assert "AFC channel expired    Yes" not in text  # denied layout pads to 26
    assert "AFC channel expired       Yes" in text
    assert "Expiry time               None" in text


def test_partial_grant_report_lists_only_granted_cfis():
    grants = (
        ChannelGrant(ChannelId(20, 5), 30.0),
        ChannelGrant(ChannelId(20, 9), 21.01),
        ChannelGrant(ChannelId(320, 33, 2), 36.0),
    )
    state = authorized_state(now=1000.0, grants=grants)
    text = ap.render_channel_report(state, 1000.0)
    lines = text.splitlines()
    assert "6GHz                   5 9" in lines
    assert "6GHz 40MHz             None" in lines
    assert "6GHz 320MHz_2          33" in lines
    assert "20MHz channel       5    9" in lines
    assert "Max Eirp          30.0 21.0" in lines
