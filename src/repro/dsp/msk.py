"""Chip-domain ↔ MSK-transition-domain conversions.

An O-QPSK signal with half-sine pulse shaping *is* an MSK signal: during
every chip period the carrier phase rotates by exactly ±π/2.  An FSK
demodulator therefore sees one bit per chip period — the *rotation
direction*.  Writing ``c_i ∈ {0, 1}`` for the chips and ``t_i`` for the
rotation during chip period ``i`` (1 = counter-clockwise, +π/2), a direct
derivation from the I/Q pulse trains gives the memoryless relation

    ``t_i = c_i XOR c_{i-1} XOR (i mod 2)``

where ``i`` is the chip's *absolute* index in the stream (802.15.4 puts even
chips on I and odd chips on Q — the parity term comes from that alternation).

This module implements the relation and its inverse.  It is the
physics-exact, stream-wide counterpart of the paper's per-symbol Algorithm 1
(see :mod:`repro.core.tables`); the two agree on every transition whose
predecessor chip is inside the sequence (Algorithm 1 additionally assumes the
phase state preceding the sequence, which only affects its first output bit).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.utils.bits import as_bit_array

__all__ = ["chips_to_transitions", "transitions_to_chips"]


def chips_to_transitions(
    chips,
    start_index: int = 0,
    previous_chip: Optional[int] = None,
) -> np.ndarray:
    """Convert a chip stream into MSK rotation bits.

    Parameters
    ----------
    chips:
        The chip values ``c_0 .. c_{N-1}``.
    start_index:
        Absolute stream index of ``chips[0]`` (determines I/Q parity).
    previous_chip:
        The chip that precedes ``chips[0]`` in the stream, if known.  When
        given, the result has length ``N`` and starts with the transition
        *into* ``chips[0]``; otherwise it has length ``N - 1``.

    Returns
    -------
    ``uint8`` array of rotation bits, 1 = counter-clockwise (+π/2).
    """
    arr = as_bit_array(chips)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if previous_chip is not None:
        arr = np.concatenate([[np.uint8(previous_chip & 1)], arr])
        start_index -= 1
    if arr.size < 2:
        return np.zeros(0, dtype=np.uint8)
    indices = np.arange(start_index + 1, start_index + arr.size)
    parity = (indices % 2).astype(np.uint8)
    return (arr[1:] ^ arr[:-1] ^ parity).astype(np.uint8)


@functools.lru_cache(maxsize=256)
def _chip_parity(first: int, length: int) -> np.ndarray:
    """I/Q rail parity ``(first + k) & 1`` of *length* consecutive chips."""
    parity = ((np.arange(length) + first) & 1).astype(np.uint8)
    parity.setflags(write=False)  # shared by every caller
    return parity


def transitions_to_chips(
    transitions,
    start_index: int,
    previous_chip: int,
) -> np.ndarray:
    """Invert :func:`chips_to_transitions`.

    Parameters
    ----------
    transitions:
        Rotation bits ``t_k`` covering chip periods
        ``start_index .. start_index + N - 1`` — one stream, or a stack
        ``(F, N)`` of streams that share *start_index* and *previous_chip*.
    start_index:
        Absolute stream index of the chip period of ``transitions[0]``.
    previous_chip:
        Value of chip ``start_index - 1``.

    Returns
    -------
    The recovered chips ``c_{start_index} .. c_{start_index + N - 1}``.
    """
    if np.ndim(transitions) > 1:
        arr = np.asarray(transitions, dtype=np.uint8)
    else:
        arr = as_bit_array(transitions)
    # Unrolling the recurrence c_k = t_k ^ c_{k-1} ^ p_k gives the closed
    # form c_k = previous_chip ^ XOR_{j<=k}(t_j ^ p_j) — a prefix XOR.
    parity = _chip_parity(start_index & 1, arr.shape[-1])
    chips = np.bitwise_xor.accumulate(arr ^ parity, axis=-1)
    chips ^= np.uint8(previous_chip & 1)
    return chips
