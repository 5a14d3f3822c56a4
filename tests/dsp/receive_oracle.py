"""Reference formulations of the per-delivery receive kernels.

Each function here is an expression the receive path once evaluated
directly and now computes with a cheaper, bit-identical kernel
(:mod:`repro.dsp.gfsk`).  The tests hold production to these to the last
bit, signed zeros included.  (The locked window's mean is held to
``window.mean()`` by the whole-row sync oracle, ``sync_oracle``.)
"""

import numpy as np

from repro.dsp.gfsk import CLIP_LEVEL


def discriminate(
    capture: np.ndarray, sample_rate: float, deviation: float
) -> np.ndarray:
    """The lag-product phase, scaled to ±1 at *deviation* and clipped.

    The product is an explicit ufunc call so that it is the same for
    every array size: the ``*`` operator swaps the complex multiply's
    operands from 256 KiB on (NumPy's temporary elision).
    """
    lag = np.multiply(capture[..., 1:], np.conj(capture[..., :-1]))
    freq = np.angle(lag) * sample_rate / (2.0 * np.pi)
    return np.clip(freq / deviation, -CLIP_LEVEL, CLIP_LEVEL)


def soft_symbols(
    disc: np.ndarray, start: int, num_symbols: int, sps: int, dc: float
) -> np.ndarray:
    """Integrate-and-dump as one reduction per symbol."""
    window = disc[start : start + num_symbols * sps] - dc
    return window.reshape(num_symbols, sps).sum(axis=1)


def rssi_sufficient(power: np.ndarray, window: int) -> float:
    """A quarter of the row's largest windowed mean power, with every
    window mean divided out first."""
    cumulative = np.zeros(power.size + 1, power.dtype)
    np.cumsum(power, out=cumulative[1:])
    windowed = (cumulative[window:] - cumulative[:-window]) / window
    return 0.25 * windowed.max()

