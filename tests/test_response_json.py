"""wire.dumps_response equals json.dumps(encode_response(resp), sort_keys=True), byte for byte."""

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim import wire
from afcsim.channels import SUPPORTED_BANDWIDTHS_MHZ, ChannelId
from afcsim.geo import GeoPoint, LocationEllipse
from afcsim.propagation import PropagationConfig, ProtectionConfig
from afcsim.server import (
    CHANNEL_POSITION,
    ChannelGrant,
    IncumbentDatabase,
    ResponseCode,
    SpectrumInquiryResponse,
    compute_availability,
    quantize_grant_dbm,
)
from afcsim.wire import dumps_response, encode_response, iso_to_epoch
from tests.check_report_json import responses
from tests.worldgen import random_world

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


# --- shared ceiling grants ---------------------------------------------------
# compute_availability hands every request at one quantized ceiling the same
# grant objects (server.CEILING_GRANTS), and dumps_response finds their text by
# the grant's id. These tests cross ceilings, the table's bound, id reuse and
# threads, and compare every response with json.dumps.


def answers(prot: ProtectionConfig, seeds=range(4)) -> list[SpectrumInquiryResponse]:
    """The answer to each AP of the worldgen worlds of seeds, with links up close, under prot."""
    out = []
    for seed in seeds:
        db, pcfg, _, positions = random_world(seed, n_links_max=8)
        for pos in positions:
            loc = LocationEllipse(pos, 50.0, 25.0, 0.0, NOW)
            out.append(success(compute_availability(loc, SUPPORTED_BANDWIDTHS_MHZ, db, pcfg, prot)))
    return out


def unbound(ceiling: float) -> list[ChannelGrant]:
    """The grants with no link at all: the 76 shared grants of the quantized ceiling."""
    loc = LocationEllipse(GeoPoint(38.0, -97.0), 50.0, 25.0, 0.0, NOW)
    prot = ProtectionConfig(regulatory_max_eirp_dbm=ceiling, min_useful_eirp_dbm=0.0)
    return compute_availability(loc, SUPPORTED_BANDWIDTHS_MHZ, IncumbentDatabase(), PropagationConfig(), prot)


def test_ceilings_in_one_process_share_grants_and_text():
    # 30.0 and 30.004 quantize to one ceiling, so they share its grants.
    assert all(a is b for a, b in zip(unbound(30.0), unbound(30.004)))
    assert not any(a is b for a, b in zip(unbound(30.0), unbound(24.5)))
    shared = kept = 0
    for ceiling in (36.0, 30.0, 30.004, 24.5, 36.0):
        top = quantize_grant_dbm(ceiling)
        for resp in answers(ProtectionConfig(regulatory_max_eirp_dbm=ceiling, min_useful_eirp_dbm=0.0)):
            assert dumps_response(resp) == reference(resp)
            shared += sum(g.max_eirp_dbm == top for g in resp.grants)
            kept += sum(g.max_eirp_dbm != top for g in resp.grants)
    assert shared > 0 and kept > 0  # both paths ran


def test_shared_grants_beside_equal_caller_built_grants():
    # An equal grant that is another object, on the canonical channel or on a
    # fresh ChannelId, is not a shared grant and has its own text written.
    for resp in answers(ProtectionConfig(regulatory_max_eirp_dbm=33.3, min_useful_eirp_dbm=0.0), seeds=range(2)):
        mixed = []
        for g in resp.grants:
            eirp = g.max_eirp_dbm
            mixed += [g, ChannelGrant(g.channel, eirp), ChannelGrant(fresh(g.channel), eirp)]
            mixed.append(ChannelGrant(g.channel, eirp - 0.5))
        assert dumps_response(success(mixed)) == reference(success(mixed))
        assert dumps_response(success(mixed[::-1])) == reference(success(mixed[::-1]))


def test_dropped_tables_never_lend_their_text_to_a_reused_id():
    # Past 16 ceilings the table starts over and the grants of the tables it
    # dropped are freed. Short-lived grants made then are likely to take their
    # ids, so a text keyed by the id of a grant nothing keeps alive would be
    # written for them; every one's EIRP differs from every shared grant's.
    first = answers(ProtectionConfig(regulatory_max_eirp_dbm=35.0, min_useful_eirp_dbm=0.0), seeds=range(2))
    for resp in first:
        assert dumps_response(resp) == reference(resp)
    for k in range(40):
        ceiling = 12.013 + 0.37 * k
        for resp in answers(ProtectionConfig(regulatory_max_eirp_dbm=ceiling, min_useful_eirp_dbm=0.0), seeds=[k]):
            assert dumps_response(resp) == reference(resp)
        for p, ch in enumerate(CHANNELS):
            resp = success([ChannelGrant(ch, -1.0 - k - p / 128)])
            assert dumps_response(resp) == reference(resp)
    for resp in first + answers(ProtectionConfig(regulatory_max_eirp_dbm=35.0, min_useful_eirp_dbm=0.0), seeds=[2]):
        assert dumps_response(resp) == reference(resp)


def test_threads_race_the_first_use_of_new_ceilings():
    # The service answers on several threads, which may all reach a new
    # ceiling at once: each makes and publishes its grants, and fills the text
    # table while the others publish. Every thread walks the same 40 ceilings,
    # more than the table keeps, so they also race its restart.
    ceilings = [8.017 + 0.53 * k for k in range(40)]
    db, pcfg, _, positions = random_world(6, n_links_max=8)
    locs = [LocationEllipse(pos, 50.0, 25.0, 0.0, NOW) for pos in positions]
    barrier = threading.Barrier(4)
    failures: list[str] = []
    done = []

    def dump(k: int):
        try:
            barrier.wait(timeout=30)
            for ceiling in ceilings:
                prot = ProtectionConfig(regulatory_max_eirp_dbm=ceiling, min_useful_eirp_dbm=0.0)
                for loc in locs:
                    resp = success(compute_availability(loc, SUPPORTED_BANDWIDTHS_MHZ, db, pcfg, prot))
                    if dumps_response(resp) != reference(resp):
                        failures.append(f"thread {k}, ceiling {ceiling}: the response differs from json.dumps")
            done.append(k)
        except Exception as exc:  # reported below, with the thread it stopped
            failures.append(f"thread {k}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=dump, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert sorted(done) == [0, 1, 2, 3]


def test_shared_grants_take_the_stored_text(monkeypatch):
    # Once filled, the shared grants are written without _grant_text, so a
    # refactor that fell back to writing each grant would fail here.
    resp = success(unbound(29.71))
    assert len(resp.grants) == 76
    assert dumps_response(resp) == reference(resp)

    def refuse(g):
        raise AssertionError("a shared grant took the per-grant path")

    monkeypatch.setattr(wire, "_grant_text", refuse)
    assert dumps_response(resp) == reference(resp)
    with pytest.raises(AssertionError):
        dumps_response(success([ChannelGrant(CHANNELS[0], 29.71)]))


def test_dates_are_written_once_per_second():
    second = iso_to_epoch("2031-02-03T04:05:06Z")
    before = wire._utc_seconds.cache_info()
    assert wire.epoch_to_iso(second + 0.25) == wire.epoch_to_iso(second + 0.75) == "2031-02-03T04:05:06Z"
    after = wire._utc_seconds.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
