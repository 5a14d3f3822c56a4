"""Pulse shapes and filters used by the modulators.

* :func:`gaussian_pulse` — the Gaussian frequency pulse that turns FSK into
  GFSK.  BLE mandates BT = 0.5.  The pulse is normalised so that its integral
  is one symbol period, preserving the total per-symbol phase advance of the
  underlying MSK signal (±π/2 at modulation index 0.5).
* :func:`half_sine_pulse` — the O-QPSK chip shape mandated by IEEE 802.15.4
  (§12.2.6 of the 2015 revision).
* :func:`fir_lowpass` — channel-selection filtering for receivers, built on
  :func:`scipy.signal.firwin` and designed once per configuration.
* :func:`apply_filter` — that FIR applied along the last axis of one
  capture or a ``(K, N)`` stack of them, as one spectral product with the
  zero-phase weights of :func:`fir_spectral_weights`.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sp_signal

__all__ = [
    "gaussian_pulse",
    "half_sine_pulse",
    "fir_lowpass",
    "fir_spectral_weights",
    "apply_filter",
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


def fir_spectral_weights(
    taps: np.ndarray, n_out: int, dtype=np.float64
) -> np.ndarray:
    """Zero-phase transfer function of a linear-phase FIR, per DFT bin.

    Rolling the (odd-length, symmetric) taps so the centre tap sits at
    index 0 makes the transfer purely real — multiplying these weights
    into a block's spectrum applies the filter as a *circular*
    convolution with no group delay.  Circular wrap touches only
    ``len(taps)//2`` samples at each block edge; keep them inside a zero
    margin (:func:`apply_filter` pads, the wideband front end places
    every slot between zero margins).

    The weights are computed in double precision and rounded once to
    *dtype* (``float32`` for a single-precision filter).  Memoised per
    ``(taps, n_out, dtype)`` as a read-only array;
    :func:`repro.dsp.gfsk.clear_waveform_caches` drops the memo.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.size > n_out:
        raise ValueError("taps longer than the block they filter")
    return _spectral_weights(taps.tobytes(), n_out, np.dtype(dtype).str)


@functools.lru_cache(maxsize=256)
def _spectral_weights(taps_bytes: bytes, n_out: int, dtype: str) -> np.ndarray:
    double = np.dtype(np.float64).str
    if dtype != double:
        weights = _spectral_weights(taps_bytes, n_out, double).astype(dtype)
        weights.setflags(write=False)  # shared by every caller
        return weights
    taps = np.frombuffer(taps_bytes, dtype=np.float64)
    padded = np.zeros(n_out)
    padded[: taps.size] = taps
    # Symmetric taps centred at 0 have a real DFT; the imaginary residue
    # is float round-off only.
    weights = np.fft.fft(np.roll(padded, -(taps.size // 2))).real
    weights.setflags(write=False)  # shared by every caller
    return weights


def apply_filter(
    taps: np.ndarray,
    samples: Union[np.ndarray, Sequence[np.ndarray]],
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Filter *samples* along the last axis with group-delay compensation.

    *samples* is one capture ``(N,)``, a stack ``(K, N)``, or a sequence
    of K equal-length captures (filtered as a ``(K, N)`` stack without
    being stacked first); *taps* an odd-length linear-phase FIR.  Output
    ``k`` is the direct form's ``convolve(samples, taps, 'full')[len(taps)
    // 2 + k]``, computed as the input spectrum times the real zero-phase
    weights of :func:`fir_spectral_weights` over ``n_fft ≥ N +
    len(taps)//2`` points, so the circular wrap lands in zero padding.
    The output dtype is ``result_type(samples, taps)`` (real input stays
    real), or *dtype* when given: the samples are cast to it as they are
    copied into the transform buffer, and a single-precision *dtype*
    runs the transforms and the weights in single precision.  The output
    is a view of the first N samples of each ``n_fft``-sample transform
    row.

    The spectral form is not bit-identical to the direct one (agreement
    is to ~1e-15 of each row's peak in double precision, ~1e-7 in
    single), except where the direct form is exact: every output whose
    whole ``len(taps)``-sample input window is zero (a truncated or
    sample-dropped stretch) is set to ``+0.0``, as the direct form gives,
    instead of the spectral round-off residue.
    Each row is filtered independently: a row alone equals the same row
    inside any stack, byte for byte.
    """
    taps = np.asarray(taps)
    if taps.ndim != 1 or taps.size % 2 == 0:
        raise ValueError(
            f"taps must be one odd-length (linear-phase) FIR, got shape "
            f"{taps.shape}"
        )
    if isinstance(samples, (list, tuple)):
        rows = [np.asarray(row) for row in samples]
        shape = (len(rows), rows[0].shape[-1])
        inferred = np.result_type(taps, *rows)
    else:
        rows = np.asarray(samples)
        shape = rows.shape
        inferred = np.result_type(rows, taps)
    dtype = inferred if dtype is None else np.dtype(dtype)
    real = dtype.kind != "c"
    n = shape[-1]
    half = taps.size // 2
    n_fft = sp_fft.next_fast_len(max(n + half, taps.size), real)
    x = np.zeros(shape[:-1] + (n_fft,), dtype=dtype)
    head = x[..., :n]
    if isinstance(rows, list):
        for out_row, row in zip(head, rows):
            out_row[...] = row
    else:
        head[...] = rows
    dead = _dead_windows(head, half)
    weights = fir_spectral_weights(taps, n_fft, np.finfo(dtype).dtype)
    if real:
        spectrum = sp_fft.rfft(x, axis=-1)
        spectrum *= weights[: spectrum.shape[-1]]
        x = sp_fft.irfft(spectrum, n_fft, axis=-1, overwrite_x=True)
    else:
        x = sp_fft.fft(x, axis=-1, overwrite_x=True)
        x *= weights
        x = sp_fft.ifft(x, axis=-1, overwrite_x=True)
    out = x[..., :n]
    if dead is not None:
        out[dead] = 0
    return out


def _dead_windows(samples: np.ndarray, half: int) -> Optional[np.ndarray]:
    """Mask of the outputs whose input window ``k ± half`` is all zero
    (samples past either edge count as zero); ``None`` if there are none
    to mask."""
    if samples.all():  # the common case: no zero sample anywhere
        return None
    n = samples.shape[-1]
    rows = samples.reshape(-1, n)
    dead = np.zeros(rows.shape, dtype=bool)
    width = 2 * half + 1
    for i in np.flatnonzero(~rows.all(axis=-1)):
        # live[j] counts into cumulative[j + half + 1]; the window sum of
        # output k is then cumulative[k + width] - cumulative[k].
        cumulative = np.zeros(n + width, dtype=np.intp)
        np.cumsum(rows[i] != 0, out=cumulative[half + 1 : half + 1 + n])
        cumulative[half + 1 + n :] = cumulative[half + n]
        dead[i] = cumulative[width:] == cumulative[:n]
    return dead.reshape(samples.shape)
