"""Zigbee ↔ BLE channel correspondence (the paper's Table II).

Both protocols use 2 MHz-wide channels in the ISM band, but with different
grids (BLE every 2 MHz, 802.15.4 every 5 MHz), so only every other Zigbee
channel lands exactly on a BLE channel centre.  Chips that can tune
arbitrary frequencies (nRF52832) reach all 16 Zigbee channels; chips locked
to the BLE channel grid — and the high-level-API smartphone of Scenario A —
only reach the eight channels below (even channels 12–26).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ble.channels import (
    ALL_CHANNELS as BLE_CHANNELS,
    channel_frequency_hz as ble_frequency_hz,
)
from repro.dot15d4.channels import (
    ZIGBEE_CHANNELS,
    channel_frequency_hz as zigbee_frequency_hz,
)

__all__ = [
    "COMMON_CHANNELS",
    "ble_channel_for_zigbee",
    "reachable_zigbee_channels",
]


def _build_common() -> Dict[int, Tuple[int, float]]:
    by_freq = {ble_frequency_hz(ch): ch for ch in BLE_CHANNELS}
    table: Dict[int, Tuple[int, float]] = {}
    for zigbee in ZIGBEE_CHANNELS:
        freq = zigbee_frequency_hz(zigbee)
        ble = by_freq.get(freq)
        if ble is not None:
            table[zigbee] = (ble, freq)
    return table


#: Table II: ``{zigbee_channel: (ble_channel, frequency_hz)}``.
COMMON_CHANNELS: Dict[int, Tuple[int, float]] = _build_common()


def ble_channel_for_zigbee(zigbee_channel: int) -> Optional[int]:
    """BLE channel sharing the Zigbee channel's centre, if any."""
    entry = COMMON_CHANNELS.get(zigbee_channel)
    return entry[0] if entry else None


def reachable_zigbee_channels(arbitrary_tuning: bool) -> Tuple[int, ...]:
    """Zigbee channels a chip can reach.

    With arbitrary frequency selection, all 16; restricted to the BLE grid,
    only the eight common channels of Table II.
    """
    if arbitrary_tuning:
        return ZIGBEE_CHANNELS
    return tuple(sorted(COMMON_CHANNELS))
