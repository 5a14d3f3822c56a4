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
    reflect_output:
        If true, the final register is bit-reversed before being returned.
        802.15.4 effectively transmits the register LSB-first which we model
        via :meth:`digest_bits`.
    xor_out:
        Value XORed into the register at the end.
    """

    def __init__(
        self,
        width: int,
        polynomial: int,
        init: int = 0,
        reflect_output: bool = False,
        xor_out: int = 0,
    ):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.polynomial = polynomial & ((1 << width) - 1)
        self.init = init & ((1 << width) - 1)
        self.reflect_output = reflect_output
        self.xor_out = xor_out & ((1 << width) - 1)
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
        if self.reflect_output:
            reg = int(f"{reg:0{self.width}b}"[::-1], 2)
        return reg ^ self.xor_out

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
        ``compute_bits(bytes_to_bits(data, order="lsb"))``.
        """
        if self._table is None:
            return self.compute_bits(bytes_to_bits(data, order="lsb"))
        table = self._table
        shift = self.width - 8
        mask = (1 << self.width) - 1
        reg = self.init
        for byte in data:
            # LSB-first transmission == MSB-first entry of the reversed
            # byte, folded into the register's top byte.
            idx = ((reg >> shift) & 0xFF) ^ _REV8[byte]
            reg = ((reg << 8) & mask) ^ table[idx]
        if self.reflect_output:
            reg = int(f"{reg:0{self.width}b}"[::-1], 2)
        return reg ^ self.xor_out

    # -- helpers ---------------------------------------------------------------
    def digest_bits(self, data: bytes, order: str = "msb") -> np.ndarray:
        """CRC of *data* as a bit array in transmission order.

        ``order`` selects whether the register is shifted out MSB-first
        (BLE's convention for its CRC24) or LSB-first.
        """
        value = self.compute(data)
        width = self.width
        if order == "msb":
            positions = np.arange(width - 1, -1, -1)
        elif order == "lsb":
            positions = np.arange(width)
        else:
            raise ValueError("order must be 'msb' or 'lsb'")
        return ((value >> positions) & 1).astype(np.uint8)
