"""BLE data whitening (Bluetooth Core spec vol 6, part B, §3.2).

A 7-bit LFSR with polynomial ``x^7 + x^4 + 1``, seeded from the RF channel
index (bit 6 set, bits 5..0 = channel), XORed over the PDU+CRC bits in
transmission order.  Whitening is an involution: applying it twice with the
same seed restores the input — which is exactly what WazaBee's "whitening
pre-inversion" trick relies on (§IV-D): a payload de-whitened *in advance*
for channel *k* comes out of the radio's whitener as the raw chip stream.

Two implementations are provided: the byte-wise Galois form used by real
firmware (``whitening_sequence``) and, in the tests, an independent
Fibonacci-form derivation from the spec diagram; they are checked against
each other.  ``x^7 + x^4 + 1`` is primitive, so each channel's stream
repeats every 127 bits: the LFSR is stepped once per channel and the
period tiled.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.ble.channels import whitening_init
from repro.utils.bits import as_bit_array

__all__ = ["whitening_sequence", "whiten"]


#: Length of every channel's whitening stream before it repeats (2^7 - 1).
_PERIOD = 127


@functools.lru_cache(maxsize=40)
def _period(channel: int) -> np.ndarray:
    """One period of the whitening stream for a BLE channel."""
    lfsr = whitening_init(channel)
    out = np.empty(_PERIOD, dtype=np.uint8)
    for i in range(_PERIOD):
        # Fibonacci form of x^7 + x^4 + 1 with the spec's register layout:
        # output and feedback tap at position 6 (bit 0 of the integer),
        # second tap at position 3 (bit 3), new bit enters at bit 6.
        bit = lfsr & 1
        out[i] = bit
        lfsr >>= 1
        if bit:
            lfsr ^= 0x44  # taps: bit 6 (re-entry) and bit 2 (x^4 path)
    out.setflags(write=False)  # shared by every caller
    return out


def whitening_sequence(channel: int, num_bits: int) -> np.ndarray:
    """First *num_bits* of the whitening stream for a BLE channel.

    Returns a fresh array, tiled from the channel's memoised period.
    """
    if num_bits < 0:
        raise ValueError(f"num_bits must be non-negative, got {num_bits}")
    return np.resize(_period(channel), num_bits)


def whiten(bits, channel: int) -> np.ndarray:
    """Whiten (or de-whiten) a bit array for the given channel.

    The operation is its own inverse.
    """
    arr = as_bit_array(bits)
    return arr ^ whitening_sequence(channel, arr.size)
