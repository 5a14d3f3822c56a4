"""Channel impairments applied by the RF medium and chip front-ends.

Everything takes and returns :class:`~repro.dsp.signal.IQSignal` and an
explicit ``numpy.random.Generator`` — no hidden global randomness, so every
experiment (Table III in particular) is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.signal import IQSignal

__all__ = ["awgn", "apply_frequency_offset"]


def awgn(sig: IQSignal, snr_db: float, rng: np.random.Generator) -> IQSignal:
    """Add complex white Gaussian noise for a target SNR.

    The SNR is measured against the *current* mean signal power, so callers
    should apply path loss first.
    """
    power = sig.power()
    if power == 0.0:
        return sig
    noise_power = power / (10.0 ** (snr_db / 10.0))
    noise = _complex_noise(len(sig), noise_power, rng)
    return IQSignal(sig.samples + noise, sig.sample_rate, sig.center_frequency)


def _complex_noise(
    num_samples: int, power: float, rng: np.random.Generator
) -> np.ndarray:
    scale = np.sqrt(power / 2.0)
    return scale * (
        rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)
    )


def apply_frequency_offset(sig: IQSignal, offset_hz: float) -> IQSignal:
    """Rotate the signal by a static carrier-frequency offset."""
    if offset_hz == 0.0:
        return sig
    n = np.arange(len(sig))
    rotated = sig.samples * np.exp(2j * np.pi * offset_hz * n / sig.sample_rate)
    return IQSignal(rotated, sig.sample_rate, sig.center_frequency)
