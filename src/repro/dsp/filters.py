"""Pulse shapes and filters used by the modulators.

* :func:`gaussian_pulse` — the Gaussian frequency pulse that turns FSK into
  GFSK.  BLE mandates BT = 0.5.  The pulse is normalised so that its integral
  is one symbol period, preserving the total per-symbol phase advance of the
  underlying MSK signal (±π/2 at modulation index 0.5).
* :func:`half_sine_pulse` — the O-QPSK chip shape mandated by IEEE 802.15.4
  (§12.2.6 of the 2015 revision).
* :func:`fir_lowpass` — channel-selection filtering for receivers, built on
  :func:`scipy.signal.firwin` and designed once per configuration.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal as sp_signal

__all__ = [
    "gaussian_pulse",
    "half_sine_pulse",
    "fir_lowpass",
    "rectangular_pulse",
]


def gaussian_pulse(
    bt: float, samples_per_symbol: int, span_symbols: int = 3
) -> np.ndarray:
    """Gaussian frequency-shaping pulse.

    Parameters
    ----------
    bt:
        Bandwidth-time product (0.5 for BLE).
    samples_per_symbol:
        Oversampling factor.
    span_symbols:
        Total length of the truncated pulse in symbol periods.

    Returns
    -------
    The pulse, normalised so ``sum(pulse) == samples_per_symbol`` — i.e. a
    rectangular NRZ bit convolved with it accumulates exactly one symbol's
    worth of frequency-time area, keeping the per-symbol phase advance equal
    to the unfiltered MSK value.
    """
    if bt <= 0:
        raise ValueError("BT product must be positive")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    if span_symbols < 1:
        raise ValueError("span_symbols must be >= 1")
    n = span_symbols * samples_per_symbol
    # Time axis in symbol periods, centred on zero.
    t = (np.arange(n) - (n - 1) / 2.0) / samples_per_symbol
    # Standard GMSK Gaussian pulse: h(t) = sqrt(2*pi/ln2) * BT * exp(...)
    alpha = np.sqrt(2.0 * np.pi / np.log(2.0)) * bt
    pulse = alpha * np.exp(-2.0 * (np.pi ** 2) * (bt ** 2) * (t ** 2) / np.log(2.0))
    return pulse * (samples_per_symbol / pulse.sum())


def rectangular_pulse(samples_per_symbol: int) -> np.ndarray:
    """Unfiltered NRZ pulse (plain FSK / MSK)."""
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    return np.ones(samples_per_symbol)


def half_sine_pulse(samples_per_chip: int) -> np.ndarray:
    """Half-sine chip pulse of duration 2·Tc (one O-QPSK symbol period).

    802.15.4 O-QPSK shapes each chip as ``sin(pi * t / (2 Tc))`` for
    ``0 <= t <= 2 Tc``.
    """
    if samples_per_chip < 1:
        raise ValueError("samples_per_chip must be >= 1")
    n = 2 * samples_per_chip
    t = np.arange(n)
    return np.sin(np.pi * t / n)


def fir_lowpass(
    cutoff_hz: float, sample_rate: float, num_taps: int = 65
) -> np.ndarray:
    """Linear-phase FIR low-pass filter taps.

    Used by receiver front-ends for channel selection: a 2 MHz-wide BLE or
    Zigbee channel at 16 Msps wants a ~1.2 MHz cutoff.  *num_taps* must be
    odd, so that :func:`apply_filter` can remove an integer group delay.

    The design is memoised per ``(cutoff_hz, sample_rate, num_taps)``:
    every receiver of a fleet shares one read-only taps array, and
    :func:`repro.dsp.gfsk.clear_waveform_caches` drops it for a cold start.
    """
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, Nyquist={sample_rate / 2}) range"
        )
    if num_taps < 3:
        raise ValueError("num_taps must be >= 3")
    if num_taps % 2 == 0:
        raise ValueError(f"num_taps must be odd (linear phase), got {num_taps}")
    return _fir_lowpass(cutoff_hz, sample_rate, num_taps)


@functools.lru_cache(maxsize=32)
def _fir_lowpass(cutoff_hz: float, sample_rate: float, num_taps: int) -> np.ndarray:
    taps = sp_signal.firwin(num_taps, cutoff_hz, fs=sample_rate)
    taps.setflags(write=False)  # shared by every caller
    return taps


def apply_filter(taps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Filter *samples* with group-delay compensation.

    Convolves with *taps* in 'full' mode, then trims so the output aligns
    with the input (assumes linear-phase, odd-length taps).
    """
    delay = (len(taps) - 1) // 2
    out = np.convolve(samples, taps, mode="full")
    return out[delay : delay + samples.size]
