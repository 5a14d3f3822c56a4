"""Scalar nearest-codeword references for the despreading kernel.

Production despreads whole captures with one matmul kernel
(:class:`repro.phy.ieee802154.Codebook`).  These one-block
searches are the definitions it is tested against: count the differing
bits to every codeword, take the first minimum.  :func:`int32_nearest`
is the integer matmul the float32 kernel replaced; the two must agree
bit for bit, dtypes included.
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


def int32_nearest(
    words: np.ndarray, blocks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Codebook(words).nearest(blocks)`` as one int32 product:
    ``|b ^ c| = |b| + |c| − 2·b·c``."""
    words = np.asarray(words, dtype=np.int32)
    weights = words.sum(axis=1)
    arr = np.asarray(blocks)
    shape = arr.shape[:-1]
    rows = arr.reshape(-1, words.shape[1]).astype(np.int32)
    dists = weights[None, :] + rows.sum(axis=1)[:, None]
    dists -= 2 * (rows @ words.T)
    symbols = dists.argmin(axis=1)
    two_best = np.partition(dists, 1, axis=1)
    return (
        symbols.reshape(shape),
        two_best[:, 0].reshape(shape),
        (two_best[:, 1] - two_best[:, 0]).reshape(shape),
    )
