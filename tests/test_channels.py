"""US 6 GHz channel tables, spans, and centers."""

import pytest

from afcsim import scenario, wire
from afcsim.channels import (
    BAND_HIGH_MHZ,
    BAND_LOW_MHZ,
    CHANNEL_POSITION,
    CHANNELS,
    ChannelId,
    FrequencyRange,
    all_us_channels,
    center_frequency_mhz,
    channel_span,
    overlaps,
    us_standard_power_channels,
)
from afcsim.errors import UnsupportedBandwidth

TWENTY = set(range(1, 94, 4)) | set(range(117, 182, 4))
FORTY = set(range(1, 90, 8)) | set(range(121, 178, 8))
EIGHTY = {1, 17, 33, 49, 65, 81, 129, 145, 161}
ONE_SIXTY = {1, 33, 65, 129}


def cfis(bw, variant=None):
    return [c.cfi for c in us_standard_power_channels(bw, variant)]


def test_channel_set_sizes():
    assert len(cfis(20)) == 41
    assert len(cfis(40)) == 20
    assert len(cfis(80)) == 9
    assert len(cfis(160)) == 4
    assert len(cfis(320, 1)) == 1
    assert len(cfis(320, 2)) == 1
    assert len(all_us_channels()) == 76


def test_channel_sets_exact():
    assert set(cfis(20)) == TWENTY
    assert set(cfis(40)) == FORTY
    assert set(cfis(80)) == EIGHTY
    assert set(cfis(160)) == ONE_SIXTY
    assert cfis(320, 1) == [1]
    assert cfis(320, 2) == [33]
    assert cfis(320) == [1, 33]


def test_twenty_mhz_table_skips_psd_gap():
    # The UNII-6/7 seam: 93 is followed by 117, not 97.
    ordered = cfis(20)
    assert ordered == sorted(ordered)
    assert ordered[23] == 93
    assert ordered[24] == 117
    assert not TWENTY & set(range(97, 117))


def test_spans_and_centers():
    assert channel_span(ChannelId(20, 1)) == FrequencyRange(5945.0, 5965.0)
    assert center_frequency_mhz(ChannelId(20, 1)) == 5955.0
    for ch in us_standard_power_channels(20):
        assert center_frequency_mhz(ch) == 5950.0 + 5.0 * ch.cfi
    assert channel_span(ChannelId(160, 33)) == FrequencyRange(6105.0, 6265.0)
    assert channel_span(ChannelId(320, 1, 1)) == FrequencyRange(5945.0, 6265.0)
    assert channel_span(ChannelId(320, 33, 2)) == FrequencyRange(6105.0, 6425.0)


def test_all_spans_inside_band():
    for ch in all_us_channels():
        span = channel_span(ch)
        assert BAND_LOW_MHZ <= span.low_mhz < span.high_mhz <= BAND_HIGH_MHZ
        assert span.high_mhz - span.low_mhz == ch.bandwidth_mhz


def test_center_is_midpoint():
    for ch in all_us_channels():
        span = channel_span(ch)
        assert center_frequency_mhz(ch) == (span.low_mhz + span.high_mhz) / 2.0


def test_ordering_is_bandwidth_then_cfi():
    seq = [(c.bandwidth_mhz, c.cfi, c.variant or 0) for c in all_us_channels()]
    assert seq == sorted(seq)


def test_labels():
    assert ChannelId(40, 9).label() == "40MHz"
    assert ChannelId(320, 1, 1).label() == "320MHz_1"
    assert ChannelId(320, 33, 2).label() == "320MHz_2"


def test_invalid_channels_rejected():
    with pytest.raises(UnsupportedBandwidth):
        ChannelId(30, 1)
    with pytest.raises(UnsupportedBandwidth):
        us_standard_power_channels(30)
    with pytest.raises(ValueError):
        ChannelId(20, 2)  # not in the table
    with pytest.raises(ValueError):
        ChannelId(20, 97)  # inside the omitted seam
    with pytest.raises(ValueError):
        ChannelId(20, 1, variant=1)  # variant only at 320
    with pytest.raises(ValueError):
        ChannelId(320, 1)  # 320 requires a variant
    with pytest.raises(ValueError):
        ChannelId(320, 33, 1)  # cfi 33 belongs to variant 2
    with pytest.raises(ValueError):
        us_standard_power_channels(320, 3)  # no third 320 MHz plan
    with pytest.raises(ValueError):
        us_standard_power_channels(320, 0)
    with pytest.raises(ValueError):
        us_standard_power_channels(20, 1)  # variant only at 320


def test_channel_lists_hand_out_the_canonical_instances():
    # The grant and harm-row writers find a channel's text by the id of its
    # instance in CHANNELS, so every list must hand out those same objects.
    lists = [all_us_channels()] + [us_standard_power_channels(bw) for bw in (20, 40, 80, 160, 320)]
    lists += [us_standard_power_channels(320, v) for v in (1, 2)]
    for channels in lists:
        for ch in channels:
            assert ch is CHANNELS[CHANNEL_POSITION[ch]]
            assert id(ch) in wire._GRANT_TEXT
            assert id(ch) in scenario._CHANNEL_TEXT
    assert len(wire._GRANT_TEXT) == len(scenario._CHANNEL_TEXT) == len(CHANNELS) == 76
    assert list(CHANNEL_POSITION.values()) == list(range(len(CHANNELS)))


def test_overlap_is_open_interval():
    a = FrequencyRange(5945.0, 5965.0)
    assert not overlaps(a, FrequencyRange(5965.0, 5985.0))  # shared edge
    assert overlaps(a, FrequencyRange(5964.999, 5985.0))
    assert overlaps(a, FrequencyRange(5940.0, 5946.0))
    assert not overlaps(a, FrequencyRange(5985.0, 6005.0))


def test_frequency_range_validation():
    with pytest.raises(ValueError):
        FrequencyRange(5900.0, 5950.0)  # below the band
    with pytest.raises(ValueError):
        FrequencyRange(6000.0, 6000.0)  # empty
    with pytest.raises(ValueError):
        FrequencyRange(7000.0, 7200.0)  # above the band
