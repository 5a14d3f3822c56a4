"""Tests for the reference LFSR.

:class:`FibonacciLfsr` is the spec-diagram form of BLE data whitening
(Bluetooth Core spec vol 6, part B, §3.2: ``x^7 + x^4 + 1``, seeded from
the channel index), kept here as a reference register; production
whitening uses per-channel periods (``repro.ble.whitening``).
"""

from typing import Sequence

import numpy as np
import pytest

from repro.utils.bits import as_bit_array


class FibonacciLfsr:
    """Fibonacci LFSR: output taken from the last stage, feedback is the XOR
    of the tapped stages.

    ``taps`` lists the stage indices (1-based, as in spec diagrams) whose
    values feed back into stage 1.  Position ``degree`` is the output stage.
    """

    def __init__(self, degree: int, taps: Sequence[int], state: int):
        if degree <= 0:
            raise ValueError("degree must be positive")
        if not state or state >> degree:
            raise ValueError(
                f"state must be a non-zero {degree}-bit value, got {state:#x}"
            )
        bad = [t for t in taps if not 1 <= t <= degree]
        if bad:
            raise ValueError(f"tap positions out of range: {bad}")
        self.degree = degree
        self.taps = tuple(sorted(set(taps)))
        # stage 1 is bit degree-1, stage ``degree`` is bit 0, so that the
        # integer reads like the spec diagram left-to-right.
        self.state = state

    def _stage(self, position: int) -> int:
        return (self.state >> (self.degree - position)) & 1

    def next_bit(self) -> int:
        """Clock once; return the output bit (last stage before shifting)."""
        out = self._stage(self.degree)
        feedback = 0
        for tap in self.taps:
            feedback ^= self._stage(tap)
        self.state = ((self.state >> 1) | (feedback << (self.degree - 1))) & (
            (1 << self.degree) - 1
        )
        return out

    def stream(self, count: int) -> np.ndarray:
        """Generate *count* output bits."""
        return np.fromiter(
            (self.next_bit() for _ in range(count)), dtype=np.uint8, count=count
        )

    def whiten(self, bits) -> np.ndarray:
        """XOR a bit array with the register's output stream.

        Whitening and de-whitening are the same operation (XOR with the same
        stream); callers reset the register state between frames.
        """
        arr = as_bit_array(bits)
        return arr ^ self.stream(arr.size)


class TestFibonacci:
    def test_maximal_period_x3_x2_1(self):
        # x^3 + x^2 + 1 is primitive: period 7.
        lfsr = FibonacciLfsr(degree=3, taps=(3, 2), state=0b001)
        stream = lfsr.stream(14)
        assert np.array_equal(stream[:7], stream[7:])
        assert len(set(map(tuple, [stream[i : i + 3] for i in range(7)]))) == 7

    def test_ble_polynomial_period_127(self):
        # x^7 + x^4 + 1 is primitive: period 127.
        lfsr = FibonacciLfsr(degree=7, taps=(7, 4), state=0x40 | 5)
        stream = lfsr.stream(254)
        assert np.array_equal(stream[:127], stream[127:])
        # No shorter period.
        for p in (1, 7, 31, 63):
            assert not np.array_equal(stream[:p], stream[p : 2 * p])

    def test_whiten_is_involution(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        a = FibonacciLfsr(7, (7, 4), 0x41)
        b = FibonacciLfsr(7, (7, 4), 0x41)
        assert np.array_equal(b.whiten(a.whiten(bits)), bits)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(7, (7, 4), 0)

    def test_state_too_wide_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(3, (3, 2), 0b1000)

    def test_bad_tap_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(3, (4,), 1)
