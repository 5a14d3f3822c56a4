"""Spectral analysis: Welch PSD estimation of a complex capture."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dsp.signal import IQSignal

__all__ = ["power_spectral_density"]


def power_spectral_density(
    sig: IQSignal, nperseg: int = 256
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD of a complex baseband capture.

    Returns ``(frequencies_hz, psd)`` with frequencies expressed at RF
    (centre frequency added back) and sorted ascending.
    """
    # Imported here: ``scipy.signal`` would add ~0.6 s to every
    # ``import repro``, and only the figures estimate a PSD.
    from scipy.signal import welch

    if len(sig) < 8:
        raise ValueError("capture too short for PSD estimation")
    nperseg = min(nperseg, len(sig))
    freqs, psd = welch(
        sig.samples,
        fs=sig.sample_rate,
        nperseg=nperseg,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(freqs)
    return freqs[order] + sig.center_frequency, psd[order]
