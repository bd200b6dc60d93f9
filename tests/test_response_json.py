"""wire.dumps_response equals json.dumps(encode_response(resp), sort_keys=True), byte for byte."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim.channels import ChannelId
from afcsim.server import CHANNEL_POSITION, ChannelGrant, ResponseCode, SpectrumInquiryResponse
from afcsim.wire import dumps_response, encode_response, iso_to_epoch
from tests.check_report_json import responses

# Every authorized channel, as the instance the server grants on.
CHANNELS = list(CHANNEL_POSITION)
NOW = iso_to_epoch("2025-06-20T05:10:00Z")


def reference(resp) -> str:
    return json.dumps(encode_response(resp), sort_keys=True)


def fresh(ch: ChannelId) -> ChannelId:
    """An equal channel that is not the canonical instance."""
    return ChannelId(ch.bandwidth_mhz, ch.cfi, ch.variant)


def success(grants, request_id="REQ-1", country_code="US") -> SpectrumInquiryResponse:
    return SpectrumInquiryResponse(
        request_id, ResponseCode.SUCCESS, country_code, tuple(grants), NOW, NOW + 86_400.0
    )


TEXT = st.text(alphabet=st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ["", '"', "\\", '"\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "€ ☃", "😀", "  ", "\ud800", "\udfff"]
)
# Halfway cases at the second decimal, subnormals, far below any useful grant, and both zeros.
EIRPS = st.floats(max_value=36.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.005, 0.015, 1.005, 2.675, 35.995, -0.125, -1.005, 5e-324, -5e-324, 1e-310, -1000.0, 0.0, -0.0]
)
GRANTS = st.lists(st.tuples(st.sampled_from(CHANNELS), st.booleans(), EIRPS), max_size=80).map(
    lambda items: [ChannelGrant(fresh(ch) if copy else ch, eirp) for ch, copy, eirp in items]
)
# From the first to the last second that is_date admits.
TIMES = st.floats(iso_to_epoch("0001-01-01T00:00:00Z"), iso_to_epoch("9999-12-31T23:59:59Z") + 0.999)


@st.composite
def arbitrary_responses(draw):
    code = draw(st.sampled_from(ResponseCode))
    request_id = draw(TEXT | st.none())
    country_code = draw(st.sampled_from(["US", None]))
    if code is ResponseCode.SUCCESS:
        issue = draw(TIMES)
        return SpectrumInquiryResponse(request_id, code, country_code, tuple(draw(GRANTS)), issue, draw(TIMES))
    return SpectrumInquiryResponse(request_id, code, country_code, issue_time=draw(st.none() | TIMES))


@settings(max_examples=400, deadline=1000, derandomize=True)
@given(arbitrary_responses())
def test_writer_equals_json_dumps(resp):
    assert dumps_response(resp) == reference(resp)


def test_every_channel_canonical_and_fresh():
    for grants in (
        [ChannelGrant(ch, 36.0) for ch in CHANNELS],
        [ChannelGrant(fresh(ch), 21.5) for ch in CHANNELS],
        [ChannelGrant(ch if p % 2 else fresh(ch), 30.0 - p / 8) for p, ch in enumerate(CHANNELS)],
    ):
        assert dumps_response(success(grants)) == reference(success(grants))


def test_both_zeros_in_one_response():
    zero, negative_zero = 0.0, -0.0
    grants = [ChannelGrant(ch, (zero, negative_zero, -0.001, 0.001)[p % 4]) for p, ch in enumerate(CHANNELS)]
    text = dumps_response(success(grants))
    assert text == reference(success(grants))
    assert '"maxEirpDbm": -0.0' in text and '"maxEirpDbm": 0.0' in text


def test_ids_and_codes_are_escaped_or_null():
    for request_id in ('"', "\\", "\x00", "é", "😀", "\ud800", None):
        for country_code in ("US", None):
            for code in ResponseCode:
                if code is ResponseCode.SUCCESS:
                    resp = success([ChannelGrant(CHANNELS[-1], 1.0)], request_id, country_code)
                else:
                    resp = SpectrumInquiryResponse(request_id, code, country_code)
                assert dumps_response(resp) == reference(resp)


def test_every_worldgen_response_equals_json_dumps():
    count = 0
    for name, resp in responses():
        assert dumps_response(resp) == reference(resp), name
        count += 1
    assert count == 2052
