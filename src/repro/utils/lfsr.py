"""Galois-form linear-feedback shift register.

A direct transcription of a shift-register diagram, general enough for
the PRNGs used in the simulation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import as_bit_array

__all__ = ["GaloisLfsr"]


class GaloisLfsr:
    """Galois-form LFSR, convenient for polynomial-style definitions.

    ``polynomial`` has bit ``i`` set for the x^i term, the x^degree term
    implicit.  Output is the register LSB.
    """

    def __init__(self, degree: int, polynomial: int, state: int):
        if degree <= 0:
            raise ValueError("degree must be positive")
        if not state or state >> degree:
            raise ValueError(
                f"state must be a non-zero {degree}-bit value, got {state:#x}"
            )
        self.degree = degree
        self.polynomial = polynomial & ((1 << degree) - 1)
        self.state = state

    def next_bit(self) -> int:
        out = self.state & 1
        self.state >>= 1
        if out:
            self.state ^= self.polynomial >> 1 | (1 << (self.degree - 1))
        return out

    def stream(self, count: int) -> np.ndarray:
        return np.fromiter(
            (self.next_bit() for _ in range(count)), dtype=np.uint8, count=count
        )

    def whiten(self, bits) -> np.ndarray:
        arr = as_bit_array(bits)
        return arr ^ self.stream(arr.size)
