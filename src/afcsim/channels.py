"""US 6 GHz standard-power channelization.

Channel identifiers, center frequencies, spans, and the authorized channel
set per bandwidth, built once as CHANNELS and the position tables over it;
every channel list hands out those same instances. A channel's cfi is the
center-frequency index of its lowest constituent 20 MHz channel (the
convention used by AP channel reports), so a channel of bandwidth B MHz spans

    [5940 + 5*cfi, 5940 + 5*cfi + B]

and its center sits at the span midpoint; for 20 MHz channels this reduces
to the familiar center = 5950 + 5*cfi.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import UnsupportedBandwidth

BAND_LOW_MHZ = 5925.0
BAND_HIGH_MHZ = 7125.0

SUPPORTED_BANDWIDTHS_MHZ = (20, 40, 80, 160, 320)


@dataclass(frozen=True)
class ChannelId:
    """One US 6 GHz channel: bandwidth, cfi, and (for 320 MHz) variant 1 or 2."""

    bandwidth_mhz: int
    cfi: int
    variant: int | None = None

    def __post_init__(self):
        if self.bandwidth_mhz not in SUPPORTED_BANDWIDTHS_MHZ:
            raise UnsupportedBandwidth(f"unsupported bandwidth {self.bandwidth_mhz} MHz")
        if self.bandwidth_mhz == 320:
            if self.variant not in (1, 2):
                raise ValueError("320 MHz channels require variant 1 or 2")
        elif self.variant is not None:
            raise ValueError("variant is only meaningful at 320 MHz")
        if self.cfi not in _TABLE[(self.bandwidth_mhz, self.variant)]:
            raise ValueError(
                f"cfi {self.cfi} not in the US table for {self.label()}"
            )

    def label(self) -> str:
        if self.bandwidth_mhz == 320:
            return f"320MHz_{self.variant}"
        return f"{self.bandwidth_mhz}MHz"


@dataclass(frozen=True, slots=True)
class FrequencyRange:
    """A [low, high] MHz interval inside the 6 GHz band."""

    low_mhz: float
    high_mhz: float

    def __post_init__(self):
        if not (BAND_LOW_MHZ <= self.low_mhz < self.high_mhz <= BAND_HIGH_MHZ):
            raise ValueError(
                f"range [{self.low_mhz}, {self.high_mhz}] not within "
                f"[{BAND_LOW_MHZ}, {BAND_HIGH_MHZ}]"
            )


# Authorized standard-power channel sets, keyed by (bandwidth, variant).
# 80+80 MHz composites are intentionally absent: no authorized entries.
_TABLE: dict[tuple[int, int | None], tuple[int, ...]] = {
    (20, None): tuple(range(1, 94, 4)) + tuple(range(117, 182, 4)),
    (40, None): tuple(range(1, 90, 8)) + tuple(range(121, 178, 8)),
    (80, None): (1, 17, 33, 49, 65, 81, 129, 145, 161),
    (160, None): (1, 33, 65, 129),
    (320, 1): (1,),
    (320, 2): (33,),
}


def us_standard_power_channels(bandwidth_mhz: int, variant: int | None = None) -> list[ChannelId]:
    """The ordered authorized channel list for one bandwidth, as CHANNELS instances.

    At 320 MHz, variant selects the channelization plan (1 or 2); omitting
    it returns variant 1 followed by variant 2.
    """
    if bandwidth_mhz not in SUPPORTED_BANDWIDTHS_MHZ:
        raise UnsupportedBandwidth(f"unsupported bandwidth {bandwidth_mhz} MHz")
    if variant not in ((None, 1, 2) if bandwidth_mhz == 320 else (None,)):
        raise ValueError(f"no variant {variant!r} at {bandwidth_mhz} MHz: only 320 MHz has variants, 1 and 2")
    return [CHANNELS[p] for p in BANDS[bandwidth_mhz] if variant in (None, CHANNELS[p].variant)]


def all_us_channels() -> list[ChannelId]:
    """Every authorized channel, ordered by bandwidth then cfi: CHANNELS as a list."""
    return list(CHANNELS)


def channel_span(ch: ChannelId) -> FrequencyRange:
    """The frequency interval a channel occupies."""
    low = 5940.0 + 5.0 * ch.cfi
    return FrequencyRange(low, low + ch.bandwidth_mhz)


def center_frequency_mhz(ch: ChannelId) -> float:
    """The channel's center frequency (span midpoint)."""
    return 5940.0 + 5.0 * ch.cfi + 0.5 * ch.bandwidth_mhz


def overlaps(a: FrequencyRange, b: FrequencyRange) -> bool:
    """Open-interval overlap: ranges sharing only an edge do not overlap."""
    return a.low_mhz < b.high_mhz and b.low_mhz < a.high_mhz


# Every authorized channel in grant order (bandwidth, then variant, then cfi),
# built once: the canonical instances. A channel's position is its index here.
CHANNELS: tuple[ChannelId, ...] = tuple(
    ChannelId(bw, cfi, variant) for (bw, variant), cfis in _TABLE.items() for cfi in cfis
)

# Each authorized channel's position in CHANNELS, which is also its grant order.
CHANNEL_POSITION: dict[ChannelId, int] = {ch: p for p, ch in enumerate(CHANNELS)}

# The positions in CHANNELS of each bandwidth's channels.
BANDS: dict[int, tuple[int, ...]] = {
    bw: tuple(p for p, ch in enumerate(CHANNELS) if ch.bandwidth_mhz == bw)
    for bw in SUPPORTED_BANDWIDTHS_MHZ
}

# Per bandwidth: its positions and their spans' low and high edges. Within a
# bandwidth both edges ascend (the two 320 MHz variants interleave in order),
# so the spans a range overlaps are one contiguous run.
_BAND_EDGES: tuple[tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]], ...] = tuple(
    (band, tuple(channel_span(CHANNELS[p]).low_mhz for p in band),
     tuple(channel_span(CHANNELS[p]).high_mhz for p in band))
    for band in BANDS.values()
)


def channel_positions(r: FrequencyRange) -> tuple[int, ...]:
    """The positions in CHANNELS, ascending, of the channels whose spans overlap r (open-interval, as in
    overlaps): per bandwidth, the run whose high edges are above r's low edge and low edges below r's
    high edge."""
    positions: tuple[int, ...] = ()
    for band, lows, highs in _BAND_EDGES:
        positions += band[bisect_right(highs, r.low_mhz):bisect_left(lows, r.high_mhz)]
    return positions
