"""BLE RF channel map (Bluetooth Core spec vol 6, part A, §2).

Forty 2 MHz-wide channels in the 2.4 GHz ISM band.  Channels 37/38/39 are
the primary advertising channels at 2402/2426/2480 MHz; data channels 0–36
fill the remaining even frequencies from 2404 MHz, skipping 2426 MHz.

The paper's Table II is the intersection of this map with the 802.15.4
channel map — see :mod:`repro.core.channel_map`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "ADVERTISING_CHANNELS",
    "DATA_CHANNELS",
    "ALL_CHANNELS",
    "CHANNEL_BANDWIDTH_HZ",
    "channel_frequency_hz",
    "channel_for_frequency",
    "whitening_init",
]

ADVERTISING_CHANNELS: Tuple[int, ...] = (37, 38, 39)
DATA_CHANNELS: Tuple[int, ...] = tuple(range(37))
ALL_CHANNELS: Tuple[int, ...] = tuple(range(40))
CHANNEL_BANDWIDTH_HZ: float = 2e6

_MHZ = 1e6


def channel_frequency_hz(channel: int) -> float:
    """Centre frequency of a BLE channel index (0–39) in hertz."""
    if channel == 37:
        return 2402 * _MHZ
    if channel == 38:
        return 2426 * _MHZ
    if channel == 39:
        return 2480 * _MHZ
    if 0 <= channel <= 10:
        return (2404 + 2 * channel) * _MHZ
    if 11 <= channel <= 36:
        return (2428 + 2 * (channel - 11)) * _MHZ
    raise ValueError(f"invalid BLE channel index {channel}")


_FREQ_TO_CHANNEL: Dict[float, int] = {
    channel_frequency_hz(ch): ch for ch in ALL_CHANNELS
}


def channel_for_frequency(frequency_hz: float) -> Optional[int]:
    """Inverse of :func:`channel_frequency_hz`; ``None`` if not a BLE centre."""
    return _FREQ_TO_CHANNEL.get(float(frequency_hz))


def whitening_init(channel: int) -> int:
    """Whitening LFSR seed for a channel: bit 6 set, bits 5..0 = index.

    Bluetooth Core spec vol 6, part B, §3.2: position 0 of the register is
    one, positions 1–6 hold the channel index MSB..LSB.  With our register
    convention (stage 1 = MSB of the integer state) that is ``1 << 6``
    OR the 6-bit channel index.
    """
    if not 0 <= channel <= 39:
        raise ValueError(f"invalid BLE channel index {channel}")
    return (1 << 6) | channel
