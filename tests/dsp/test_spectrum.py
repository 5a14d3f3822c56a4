"""Tests for PSD estimation, and band power integrated from it."""

import numpy as np
import pytest

from repro.dsp.signal import IQSignal
from repro.dsp.spectrum import power_spectral_density


def band_power(
    sig, rf_center_hz: float, bandwidth_hz: float, nperseg: int = 256
) -> float:
    """Integrated power inside an RF band of the given width."""
    freqs, psd = power_spectral_density(sig, nperseg=nperseg)
    low = rf_center_hz - bandwidth_hz / 2.0
    high = rf_center_hz + bandwidth_hz / 2.0
    mask = (freqs >= low) & (freqs <= high)
    if not mask.any():
        return 0.0
    return float(np.trapezoid(psd[mask], freqs[mask]))


def channel_powers(
    sig, centers_hz, bandwidth_hz: float, nperseg: int = 256
) -> np.ndarray:
    """Band power for a list of channel centres (one PSD, many integrals)."""
    freqs, psd = power_spectral_density(sig, nperseg=nperseg)
    out = np.zeros(len(centers_hz))
    for i, center in enumerate(centers_hz):
        mask = (freqs >= center - bandwidth_hz / 2.0) & (
            freqs <= center + bandwidth_hz / 2.0
        )
        if mask.any():
            out[i] = float(np.trapezoid(psd[mask], freqs[mask]))
    return out


def tone_at(offset_hz, center=2440e6, n=8192, fs=16e6, amplitude=1.0):
    t = np.arange(n) / fs
    return IQSignal(amplitude * np.exp(2j * np.pi * offset_hz * t), fs, center)


class TestPsd:
    def test_peak_at_tone_frequency(self):
        sig = tone_at(2e6)
        freqs, psd = power_spectral_density(sig, nperseg=1024)
        peak = freqs[np.argmax(psd)]
        assert peak == pytest.approx(2442e6, abs=0.1e6)

    def test_frequencies_sorted(self):
        freqs, _ = power_spectral_density(tone_at(0), nperseg=256)
        assert np.all(np.diff(freqs) > 0)

    def test_short_capture_rejected(self):
        with pytest.raises(ValueError):
            power_spectral_density(IQSignal(np.ones(4), 16e6))


class TestBandPower:
    def test_tone_captured_in_band(self):
        sig = tone_at(1e6)  # at RF 2441 MHz
        inside = band_power(sig, 2441e6, 2e6, nperseg=1024)
        outside = band_power(sig, 2446e6, 2e6, nperseg=1024)
        assert inside > 100 * max(outside, 1e-12)

    def test_power_scales_with_amplitude(self):
        weak = band_power(tone_at(1e6, amplitude=0.1), 2441e6, 2e6, nperseg=1024)
        strong = band_power(tone_at(1e6, amplitude=1.0), 2441e6, 2e6, nperseg=1024)
        assert strong / weak == pytest.approx(100.0, rel=0.1)

    def test_no_overlap_returns_zero(self):
        sig = tone_at(0)
        assert band_power(sig, 2.5e9, 1e6) == 0.0


class TestChannelPowers:
    def test_vectorised_matches_scalar(self):
        sig = tone_at(1e6)
        centers = [2439e6, 2441e6, 2443e6]
        vec = channel_powers(sig, centers, 2e6, nperseg=1024)
        for i, c in enumerate(centers):
            assert vec[i] == pytest.approx(
                band_power(sig, c, 2e6, nperseg=1024), rel=1e-9
            )
        assert np.argmax(vec) == 1
