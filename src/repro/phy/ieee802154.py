"""IEEE 802.15.4 physical layer (2.4 GHz O-QPSK PHY).

Implements §III-C of the paper / clause 12 of IEEE 802.15.4-2015:

* the PPDU format — preamble (4 zero bytes), SFD, PHR (frame length),
  PSDU;
* Direct Sequence Spread Spectrum: each nibble (4 bits, LSB nibble of a
  byte first) maps to a 32-chip pseudo-random noise sequence — the paper's
  Table I, reproduced verbatim in :data:`PN_SEQUENCES`;
* despreading by minimum Hamming distance, which is what lets both the
  legitimate Zigbee receiver and the WazaBee receiver tolerate chip errors.

Note on the SFD: the standard defines the SFD *value* as 0xA7; the paper's
§III-C prints it as "0x7A" because it lists the nibbles in transmission
order (low nibble 0x7 on air first).  Both descriptions put symbol 7 then
symbol 10 on the air, which is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bits import parse_bitstring

__all__ = [
    "CHIP_RATE_HZ",
    "CHIPS_PER_SYMBOL",
    "SYMBOLS_PER_BYTE",
    "PREAMBLE_BYTES",
    "SFD_VALUE",
    "MAX_PSDU_SIZE",
    "PN_SEQUENCES",
    "PN_MATRIX",
    "symbols_for_byte",
    "byte_for_symbols",
    "spread_bytes",
    "spread_symbols",
    "Codebook",
    "PN_CODEBOOK",
    "despread_chips",
    "Ppdu",
    "SHR_SYMBOLS",
]

CHIP_RATE_HZ = 2e6
CHIPS_PER_SYMBOL = 32
SYMBOLS_PER_BYTE = 2
PREAMBLE_BYTES = 4
SFD_VALUE = 0xA7
MAX_PSDU_SIZE = 127

# The paper's Table I.  Row order there is by transmission-order bit pattern
# (b0 b1 b2 b3) with b0 the LSB, i.e. rows appear as symbols
# 0, 1, 2, 3, ... 15 — the same indexing used here.
_PN_TABLE_TEXT = [
    "11011001 11000011 01010010 00101110",  # 0  (0000)
    "11101101 10011100 00110101 00100010",  # 1  (1000)
    "00101110 11011001 11000011 01010010",  # 2  (0100)
    "00100010 11101101 10011100 00110101",  # 3  (1100)
    "01010010 00101110 11011001 11000011",  # 4  (0010)
    "00110101 00100010 11101101 10011100",  # 5  (1010)
    "11000011 01010010 00101110 11011001",  # 6  (0110)
    "10011100 00110101 00100010 11101101",  # 7  (1110)
    "10001100 10010110 00000111 01111011",  # 8  (0001)
    "10111000 11001001 01100000 01110111",  # 9  (1001)
    "01111011 10001100 10010110 00000111",  # 10 (0101)
    "01110111 10111000 11001001 01100000",  # 11 (1101)
    "00000111 01111011 10001100 10010110",  # 12 (0011)
    "01100000 01110111 10111000 11001001",  # 13 (1011)
    "10010110 00000111 01111011 10001100",  # 14 (0111)
    "11001001 01100000 01110111 10111000",  # 15 (1111)
]

PN_SEQUENCES: Tuple[np.ndarray, ...] = tuple(
    parse_bitstring(row) for row in _PN_TABLE_TEXT
)

# All sequences stacked as a (16, 32) matrix for vectorised Hamming search.
PN_MATRIX: np.ndarray = np.stack(PN_SEQUENCES)


def symbols_for_byte(value: int) -> Tuple[int, int]:
    """Split a byte into its two DSSS symbols, low nibble first."""
    if not 0 <= value <= 0xFF:
        raise ValueError("byte value out of range")
    return value & 0x0F, value >> 4


def byte_for_symbols(low: int, high: int) -> int:
    """Reassemble a byte from two symbols (low nibble first)."""
    if not 0 <= low <= 0xF or not 0 <= high <= 0xF:
        raise ValueError("symbol out of range")
    return low | (high << 4)


def spread_symbols(symbols: Sequence[int]) -> np.ndarray:
    """Concatenate the PN sequences for a symbol list."""
    if len(symbols) == 0:
        return np.zeros(0, dtype=np.uint8)
    bad = [s for s in symbols if not 0 <= int(s) <= 15]
    if bad:
        raise ValueError(f"symbols out of range: {bad}")
    return np.concatenate([PN_SEQUENCES[int(s)] for s in symbols])


def spread_bytes(data: bytes) -> np.ndarray:
    """DSSS-spread *data*: each byte becomes 64 chips (2 symbols)."""
    symbols: List[int] = []
    for byte in data:
        low, high = symbols_for_byte(byte)
        symbols.extend((low, high))
    return spread_symbols(symbols)


class Codebook:
    """Binary codewords prepared for nearest-codeword search.

    The one despreading kernel of both receivers — PN sequences for
    802.15.4 chips, their MSK encodings for WazaBee.  For 0/1 vectors
    ``b`` and ``c``, ``|b ^ c| = |c| − b·(2c − 1)``, so a single
    ``(N, L) × (L, K)`` float32 BLAS product of the blocks with the ±1
    codewords scores every block against every codeword.  The scores are
    exact: every partial sum is an integer of magnitude at most ``L``,
    and float32 represents every integer below 2²⁴ exactly.
    """

    def __init__(self, words: np.ndarray):
        words = np.asarray(words, dtype=np.int32)
        self._length = words.shape[1]
        self._weights = words.sum(axis=1).astype(np.float32)
        self._signs = np.ascontiguousarray((2 * words - 1).T, dtype=np.float32)

    def nearest(
        self, blocks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Match every ``(..., L)`` block of 0/1 values to its nearest
        codeword.

        Returns ``(symbols, distances, llrs)``, each of shape
        ``blocks.shape[:-1]``: the index of the nearest codeword (ties go
        to the lowest index), its Hamming distance, and the margin
        ``d₂ − d₁`` to the runner-up.
        """
        arr = np.asarray(blocks)
        shape = arr.shape[:-1]
        rows = arr.reshape(-1, self._length).astype(np.float32)
        scores = rows @ self._signs
        np.subtract(self._weights, scores, out=scores)
        dists = scores.astype(np.int64)
        symbols = dists.argmin(axis=1)
        two_best = np.partition(dists, 1, axis=1)
        return (
            symbols.reshape(shape),
            two_best[:, 0].reshape(shape),
            (two_best[:, 1] - two_best[:, 0]).reshape(shape),
        )


#: The 16 PN sequences as the despreading codebook.
PN_CODEBOOK = Codebook(PN_MATRIX)


def despread_chips(
    chips: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Despread chip streams into symbols, with soft output.

    *chips* is one stream ``(N,)`` or a stack ``(..., N)``; each stream is
    cut into 32-chip blocks (trailing chips that do not fill a block are
    ignored) and every block is matched to the nearest PN sequence by
    Hamming distance — which copes with "bit errors caused by the
    approximation ... but also interference due to the channel" (§IV-D).
    Returns ``(symbols, distances, llrs)``, each of shape
    ``(..., N // 32)``.  *llrs* is the per-symbol margin ``d₂ − d₁``
    between the two best PN matches (0 = ambiguous, 12+ = clean: distinct
    PN sequences are ≥16 chips apart within each cyclic-shift family and
    ≥12 across the conjugate family) — the soft input that codeword-level
    decisions build on.
    """
    arr = np.asarray(chips, dtype=np.uint8)
    num_blocks = arr.shape[-1] // CHIPS_PER_SYMBOL
    blocks = arr[..., : num_blocks * CHIPS_PER_SYMBOL].reshape(
        arr.shape[:-1] + (num_blocks, CHIPS_PER_SYMBOL)
    )
    return PN_CODEBOOK.nearest(blocks)


def _shr_symbols() -> List[int]:
    preamble = [0] * (PREAMBLE_BYTES * SYMBOLS_PER_BYTE)
    sfd_low, sfd_high = symbols_for_byte(SFD_VALUE)
    return preamble + [sfd_low, sfd_high]


#: Synchronisation-header symbols: eight zero symbols then the SFD pair.
SHR_SYMBOLS: Tuple[int, ...] = tuple(_shr_symbols())


@dataclass
class Ppdu:
    """An 802.15.4 PHY protocol data unit."""

    psdu: bytes

    def __post_init__(self) -> None:
        if len(self.psdu) > MAX_PSDU_SIZE:
            raise ValueError(
                f"PSDU limited to {MAX_PSDU_SIZE} bytes, got {len(self.psdu)}"
            )

    # -- symbol/chip domain ------------------------------------------------
    def to_symbols(self) -> List[int]:
        """Full frame as DSSS symbols (SHR + PHR + PSDU)."""
        symbols = list(SHR_SYMBOLS)
        phr = len(self.psdu) & 0x7F
        low, high = symbols_for_byte(phr)
        symbols.extend((low, high))
        for byte in self.psdu:
            low, high = symbols_for_byte(byte)
            symbols.extend((low, high))
        return symbols

    def to_chips(self) -> np.ndarray:
        """Full frame as a chip stream."""
        return spread_symbols(self.to_symbols())

    @property
    def num_symbols(self) -> int:
        return len(SHR_SYMBOLS) + SYMBOLS_PER_BYTE * (1 + len(self.psdu))

    # -- parsing -------------------------------------------------------------
    @staticmethod
    def parse_symbols(symbols: Sequence[int]) -> Optional["Ppdu"]:
        """Reassemble a PPDU from a symbol stream that starts at the SFD.

        *symbols* must begin with the SFD symbol pair (the receiver strips
        the preamble during synchronisation).  Returns ``None`` when the
        stream is malformed or truncated.
        """
        sfd_low, sfd_high = symbols_for_byte(SFD_VALUE)
        if len(symbols) < 4:
            return None
        if symbols[0] != sfd_low or symbols[1] != sfd_high:
            return None
        length = byte_for_symbols(symbols[2], symbols[3]) & 0x7F
        needed = 4 + SYMBOLS_PER_BYTE * length
        if len(symbols) < needed:
            return None
        payload = bytes(
            byte_for_symbols(symbols[4 + 2 * i], symbols[5 + 2 * i])
            for i in range(length)
        )
        return Ppdu(psdu=payload)

    @staticmethod
    def find_sfd(symbols: Sequence[int], search_limit: int = 16) -> Optional[int]:
        """Locate the SFD symbol pair within the first *search_limit* symbols."""
        sfd_low, sfd_high = symbols_for_byte(SFD_VALUE)
        limit = min(len(symbols) - 1, search_limit)
        for i in range(limit):
            if symbols[i] == sfd_low and symbols[i + 1] == sfd_high:
                return i
        return None
