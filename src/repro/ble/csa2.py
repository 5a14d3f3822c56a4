"""Channel Selection Algorithm #2 (Bluetooth Core spec vol 6, part B, §4.5.8.3).

CSA#2 hashes the connection/advertising event counter with a channel
identifier derived from the Access Address to pick the next RF channel.
Extended advertising uses it to choose the *secondary* advertising channel
carrying AUX_ADV_IND — which is why the smartphone attacker in Scenario A
cannot pick the Zigbee channel deterministically: they can only enable
advertising at the smallest interval and wait for CSA#2 to land on the BLE
channel whose frequency matches the target (the paper's phrasing: "increase
the probability that the channel selection algorithm picks our target
channel").
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = [
    "ALL_DATA_CHANNELS",
    "channel_identifier",
    "csa2_select",
    "Csa2Session",
]


def _perm(value: int) -> int:
    """Bit-reverse each byte of a 16-bit value (the spec's PERM block)."""
    out = 0
    for byte_index in (0, 8):
        byte = (value >> byte_index) & 0xFF
        reversed_byte = int(f"{byte:08b}"[::-1], 2)
        out |= reversed_byte << byte_index
    return out


def _mam(a: int, b: int) -> int:
    """Multiply-Add-Modulo block: (17·a + b) mod 2^16."""
    return (17 * a + b) & 0xFFFF


def channel_identifier(access_address: int) -> int:
    """Channel identifier: upper XOR lower half of the Access Address."""
    if not 0 <= access_address <= 0xFFFFFFFF:
        raise ValueError("access address must be a 32-bit value")
    return ((access_address >> 16) ^ access_address) & 0xFFFF


def _prn_e(counter: int, ch_id: int) -> int:
    prn = (counter ^ ch_id) & 0xFFFF
    for _ in range(3):
        prn = _perm(prn)
        prn = _mam(prn, ch_id)
    return prn ^ ch_id


def csa2_select(
    counter: int, access_address: int, used_channels: Sequence[int]
) -> int:
    """Select the data channel for an event.

    Parameters
    ----------
    counter:
        Event counter (connection event or advertising event counter).
    access_address:
        The 32-bit Access Address of the connection / advertising set.
    used_channels:
        Sorted list of channel indices enabled in the channel map.
    """
    used = sorted(set(used_channels))
    if not used:
        raise ValueError("channel map must enable at least one channel")
    bad = [c for c in used if not 0 <= c <= 36]
    if bad:
        raise ValueError(f"data channel indices out of range: {bad}")
    prn_e = _prn_e(counter & 0xFFFF, channel_identifier(access_address))
    unmapped = prn_e % 37
    if unmapped in used:
        return unmapped
    remapping_index = (len(used) * prn_e) >> 16
    return used[remapping_index]


#: The channel map of an advertising set: every data channel enabled.
ALL_DATA_CHANNELS = tuple(range(37))


class Csa2Session:
    """Stateful per-event channel selection for an advertising set, over
    :data:`ALL_DATA_CHANNELS`."""

    def __init__(self, access_address: int):
        self.access_address = access_address
        self.counter = 0
        # Validate eagerly so construction fails fast.
        csa2_select(0, access_address, ALL_DATA_CHANNELS)

    def next_channel(self) -> Tuple[int, int]:
        """Advance one event; return ``(event_counter, channel)``."""
        event = self.counter
        channel = csa2_select(event, self.access_address, ALL_DATA_CHANNELS)
        self.counter = (self.counter + 1) & 0xFFFF
        return event, channel
