"""US 6 GHz standard-power channelization.

Channel identifiers, center frequencies, spans, and the authorized channel
set per bandwidth. A channel's cfi is the center-frequency index of its
lowest constituent 20 MHz channel (the convention used by AP channel
reports), so a channel of bandwidth B MHz spans

    [5940 + 5*cfi, 5940 + 5*cfi + B]

and its center sits at the span midpoint; for 20 MHz channels this reduces
to the familiar center = 5950 + 5*cfi.
"""

from __future__ import annotations

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
    """The ordered authorized channel list for one bandwidth.

    At 320 MHz, variant selects the channelization plan (1 or 2); omitting
    it returns variant 1 followed by variant 2.
    """
    if bandwidth_mhz not in SUPPORTED_BANDWIDTHS_MHZ:
        raise UnsupportedBandwidth(f"unsupported bandwidth {bandwidth_mhz} MHz")
    if bandwidth_mhz == 320:
        variants = (1, 2) if variant is None else (variant,)
        return [
            ChannelId(320, cfi, v) for v in variants for cfi in _TABLE[(320, v)]
        ]
    if variant is not None:
        raise ValueError("variant is only meaningful at 320 MHz")
    return [ChannelId(bandwidth_mhz, cfi) for cfi in _TABLE[(bandwidth_mhz, None)]]


def all_us_channels() -> list[ChannelId]:
    """Every authorized channel, ordered by bandwidth then cfi."""
    out: list[ChannelId] = []
    for bw in SUPPORTED_BANDWIDTHS_MHZ:
        out.extend(us_standard_power_channels(bw))
    return out


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
