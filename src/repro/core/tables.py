"""Algorithm 1 and the PN→MSK correspondence table (§IV-C).

The heart of WazaBee: each 32-chip PN sequence, viewed as an O-QPSK
phase trajectory, is re-encoded as the 31 rotation directions an MSK
(≈ BLE GFSK) modem would produce/observe — ``1`` for a counter-clockwise
+π/2 step, ``0`` for a clockwise −π/2 step.

:func:`pn_to_msk` transcribes the paper's Algorithm 1 verbatim, including
its fixed initial state (state 0, i.e. the I/Q quadrant ``(+,+)``).  Because
the algorithm starts at chip index 1, that initial state encodes an
*assumption* about chip 0 (that the preceding I-pulse was positive); the
physics-exact stream conversion in :mod:`repro.dsp.msk` agrees with
Algorithm 1 on every bit whenever that assumption holds, and the test suite
pins down the exact relationship.  For despreading, a fixed per-symbol table
is what matters — both ends use the same one, and Hamming-distance matching
absorbs boundary effects (§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, PN_SEQUENCES, Codebook
from repro.utils.bits import as_bit_array

__all__ = ["pn_to_msk", "CorrespondenceTable", "MSK_BITS_PER_SYMBOL"]

MSK_BITS_PER_SYMBOL = CHIPS_PER_SYMBOL - 1

# The paper's state tables: state s is the I/Q quadrant
# (evenStates[s], oddStates[s]) reached mid-chip.
_EVEN_STATES = (1, 0, 0, 1)
_ODD_STATES = (1, 1, 0, 0)


def pn_to_msk(oqpsk_sequence) -> np.ndarray:
    """Algorithm 1: convert a 32-chip PN sequence to its 31-bit MSK encoding.

    A direct transcription of the paper's pseudocode.
    """
    seq = as_bit_array(oqpsk_sequence)
    if seq.size != CHIPS_PER_SYMBOL:
        raise ValueError(
            f"expected {CHIPS_PER_SYMBOL} chips, got {seq.size}"
        )
    msk = np.empty(MSK_BITS_PER_SYMBOL, dtype=np.uint8)
    current_state = 0
    for i in range(1, CHIPS_PER_SYMBOL):
        states = _ODD_STATES if i % 2 == 1 else _EVEN_STATES
        if seq[i] == states[(current_state + 1) % 4]:
            current_state = (current_state + 1) % 4
            msk[i - 1] = 1
        else:
            current_state = (current_state - 1) % 4
            msk[i - 1] = 0
    return msk


@dataclass(frozen=True)
class CorrespondenceTable:
    """The full 16-symbol correspondence table.

    ``matrix`` stacks the MSK encodings of the 16 PN sequences as a
    ``(16, 31)`` array for vectorised minimum-Hamming-distance lookup —
    the decoding step of the reception primitive.
    """

    matrix: np.ndarray

    @classmethod
    def build(cls) -> "CorrespondenceTable":
        rows = [pn_to_msk(seq) for seq in PN_SEQUENCES]
        return cls(matrix=np.stack(rows))

    @cached_property
    def codebook(self) -> Codebook:
        """``matrix`` prepared for the despreading kernel."""
        return Codebook(self.matrix)

    def msk_sequence(self, symbol: int) -> np.ndarray:
        """MSK encoding of one DSSS symbol (31 bits)."""
        if not 0 <= symbol <= 15:
            raise ValueError(f"symbol {symbol} out of range")
        return self.matrix[symbol]

    def decode_blocks(self, blocks) -> Tuple[np.ndarray, np.ndarray]:
        """Best symbol for every 31-bit received block of a capture.

        *blocks* is an ``(N, 31)`` array of received bits — one row per
        DSSS symbol.  "A Hamming distance is calculated in order to find
        which PN sequence encoded in MSK fits the best the received
        block" (§IV-D), by the same kernel that despreads 802.15.4 chips
        (:class:`~repro.phy.ieee802154.Codebook`; ties resolve to the
        lowest symbol index).  Returns ``(symbols, distances)`` as
        length-``N`` integer arrays.
        """
        arr = np.asarray(blocks, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != MSK_BITS_PER_SYMBOL:
            raise ValueError(
                f"expected an (N, {MSK_BITS_PER_SYMBOL}) block matrix, "
                f"got shape {arr.shape}"
            )
        symbols, distances, _llrs = self.codebook.nearest(arr)
        return symbols, distances

    def as_dict(self) -> Dict[int, str]:
        """Human-readable dump (used by the Table I / Algorithm 1 benches)."""
        return {
            symbol: "".join(str(int(b)) for b in self.matrix[symbol])
            for symbol in range(16)
        }


_DEFAULT_TABLE: CorrespondenceTable = CorrespondenceTable.build()


def default_table() -> CorrespondenceTable:
    """The shared, precomputed correspondence table."""
    return _DEFAULT_TABLE
