"""Scalar nearest-codeword references for the despreading kernel.

Production despreads whole captures with one matmul kernel
(:class:`repro.phy.ieee802154.Codebook`).  These one-block
searches are the definitions it is tested against: count the differing
bits to every codeword, take the first minimum.
"""

from typing import Tuple

import numpy as np

from repro.core.tables import MSK_BITS_PER_SYMBOL, CorrespondenceTable
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, PN_MATRIX
from repro.utils.bits import as_bit_array


def _nearest(codebook: np.ndarray, block: np.ndarray) -> Tuple[int, int]:
    distances = np.count_nonzero(codebook != block[None, :], axis=1)
    best = int(np.argmin(distances))
    return best, int(distances[best])


def despread_symbol(chips) -> Tuple[int, int]:
    """``(symbol, hamming_distance)`` of one 32-chip 802.15.4 block."""
    arr = np.asarray(chips, dtype=np.uint8)
    if arr.size != CHIPS_PER_SYMBOL:
        raise ValueError(f"expected {CHIPS_PER_SYMBOL} chips, got {arr.size}")
    return _nearest(PN_MATRIX, arr)


def decode_block(table: CorrespondenceTable, bits) -> Tuple[int, int]:
    """``(symbol, hamming_distance)`` of one 31-bit WazaBee MSK block."""
    arr = as_bit_array(bits)
    if arr.size != MSK_BITS_PER_SYMBOL:
        raise ValueError(
            f"expected {MSK_BITS_PER_SYMBOL} bits, got {arr.size}"
        )
    return _nearest(table.matrix, arr)
