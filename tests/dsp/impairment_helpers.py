"""Capture impairments only the tests apply: a receiver-floor noise
capture, a static carrier-phase rotation and an integer sample delay."""

import numpy as np

from repro.dsp.impairments import _complex_noise
from repro.dsp.signal import IQSignal


def noise_floor(
    num_samples: int,
    sample_rate: float,
    power: float,
    rng: np.random.Generator,
    center_frequency: float = 0.0,
) -> IQSignal:
    """A pure-noise capture of the given mean power (receiver thermal floor)."""
    return IQSignal(
        _complex_noise(num_samples, power, rng), sample_rate, center_frequency
    )


def apply_phase_offset(sig: IQSignal, phase_rad: float) -> IQSignal:
    """Apply a static carrier-phase rotation."""
    if phase_rad == 0.0:
        return sig
    return IQSignal(
        sig.samples * np.exp(1j * phase_rad), sig.sample_rate, sig.center_frequency
    )


def apply_timing_offset(sig: IQSignal, delay_samples: int) -> IQSignal:
    """Delay the signal by an integer number of samples (zero padded)."""
    return sig.delayed(delay_samples)
