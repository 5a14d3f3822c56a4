"""Wall-clock timing scaled to a fixed reference speed.

On a shared host the CPU speed available to one process swings by up to
~1.8x over tens of seconds, so raw wall-clock medians of identical runs
spread wider than any useful regression bound.  :class:`ReferenceClock`
times a fixed NumPy/Python computation (independent of the code under
test, with a mix of small FFTs, filters, integer matmuls and dict
churn similar to the campaign's decode path) right before and right
after every measured call, and rescales the call's wall time by
``REFERENCE_NOMINAL_S / mean(reference before, reference after)``.

A reported value therefore reads as the wall time on a machine where the
reference computation takes exactly ``REFERENCE_NOMINAL_S``; a change
that slows the measured call still scales it up one for one.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

import numpy as np

__all__ = ["REFERENCE_NOMINAL_S", "ReferenceClock", "reference_work"]

#: Nominal duration of :func:`reference_work`; the scale of every result.
REFERENCE_NOMINAL_S = 0.040

T = TypeVar("T")


def reference_work() -> float:
    """The fixed reference computation; returns a checksum."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    taps = rng.standard_normal(31)
    codes = rng.integers(0, 2, size=(64, 32)).astype(np.int32)
    acc = 0.0
    for i in range(150):
        y = np.convolve(x, taps, mode="same")
        z = np.fft.ifft(np.fft.fft(y) * np.conj(np.fft.fft(x)))
        acc += float(np.abs(z[:64]).sum())
        table = {j: (j * 1.5, str(j)) for j in range(300)}
        acc += len(table) + int((codes @ codes[i % 64]).argmin())
    return acc


def _reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class ReferenceClock:
    """Times calls in reference-speed seconds (see module docstring)."""

    def __init__(self) -> None:
        _reference_s()  # first call pays NumPy's lazy initialisation
        self._last = _reference_s()
        #: Wall-to-reference scale factor of the latest :meth:`time` call.
        self.factor = 1.0

    def time(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run *fn*; return its value and its scaled duration in seconds."""
        before = self._last
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        self._last = _reference_s()
        self.factor = REFERENCE_NOMINAL_S / ((before + self._last) / 2)
        return value, elapsed * self.factor
