"""Generic bit-serial CRC engine.

Both radio standards in this project define their CRCs at the bit level, in
transmission order (LSB first within each byte):

* BLE uses a 24-bit CRC with polynomial
  ``x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1`` seeded per-context
  (``0x555555`` for advertising channels);
* IEEE 802.15.4 uses the 16-bit ITU-T CRC ``x^16 + x^12 + x^5 + 1`` with a
  zero seed, transmitted least-significant byte first.

:meth:`CrcEngine.compute_bits` is the deliberately bit-serial, auditable
transcription of the shift register.  Byte-aligned callers go through
:meth:`CrcEngine.compute`, which runs a 256-entry table transform derived
from (and property-tested against) the bit-serial reference — the FCS check
sits on the reception hot path, once per decoded frame.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import as_bit_array, bytes_to_bits

__all__ = ["CrcEngine"]

#: Bit-reversal of every byte value (b0..b7 -> b7..b0).
_REV8 = [
    int(f"{byte:08b}"[::-1], 2) for byte in range(256)
]


class CrcEngine:
    """A configurable serial CRC over bits in transmission order.

    Parameters
    ----------
    width:
        Register width in bits.
    polynomial:
        Generator polynomial with the top (x^width) term implicit, expressed
        with bit ``i`` standing for the x^i term.
    init:
        Initial register value.

    The final register is the CRC: no output reflection, no final XOR.
    """

    def __init__(self, width: int, polynomial: int, init: int = 0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.polynomial = polynomial & ((1 << width) - 1)
        self.init = init & ((1 << width) - 1)
        self._table = self._build_table() if width >= 8 else None

    # -- core ----------------------------------------------------------------
    def compute_bits(self, bits) -> int:
        """Run the register over *bits* (already in transmission order)."""
        arr = as_bit_array(bits)
        reg = self.init
        top = 1 << (self.width - 1)
        mask = (1 << self.width) - 1
        for bit in arr:
            feedback = ((reg & top) != 0) ^ bool(bit)
            reg = (reg << 1) & mask
            if feedback:
                reg ^= self.polynomial
        return reg

    def _build_table(self):
        """256-entry transform of eight zero-input register steps.

        ``table[j]`` is the register after clocking ``j << (width-8)``
        through eight serial steps; by linearity over GF(2) a whole input
        byte then reduces to one lookup in :meth:`compute`.
        """
        top = 1 << (self.width - 1)
        mask = (1 << self.width) - 1
        table = []
        for j in range(256):
            reg = j << (self.width - 8)
            for _ in range(8):
                if reg & top:
                    reg = ((reg << 1) & mask) ^ self.polynomial
                else:
                    reg = (reg << 1) & mask
            table.append(reg)
        return table

    def compute(self, data: bytes) -> int:
        """CRC of *data* transmitted LSB-first per byte (radio convention).

        Byte-wise table-driven; bit-exact with
        ``compute_bits(bytes_to_bits(data))``.
        """
        if self._table is None:
            return self.compute_bits(bytes_to_bits(data))
        table = self._table
        shift = self.width - 8
        mask = (1 << self.width) - 1
        reg = self.init
        for byte in data:
            # LSB-first transmission == MSB-first entry of the reversed
            # byte, folded into the register's top byte.
            idx = ((reg >> shift) & 0xFF) ^ _REV8[byte]
            reg = ((reg << 8) & mask) ^ table[idx]
        return reg

    # -- helpers ---------------------------------------------------------------
    def digest_bits(self, data: bytes) -> np.ndarray:
        """CRC of *data* as a bit array in transmission order: the register
        shifted out MSB-first (BLE's convention for its CRC24)."""
        value = self.compute(data)
        positions = np.arange(self.width - 1, -1, -1)
        return ((value >> positions) & 1).astype(np.uint8)
