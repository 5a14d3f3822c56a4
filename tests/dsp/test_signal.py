"""Tests for the IQSignal container."""

import numpy as np
import pytest

from repro.dsp.signal import IQSignal
from tests.dsp.impairment_helpers import instantaneous_frequency


def tone(freq, fs=16e6, n=1600, center=0.0):
    t = np.arange(n) / fs
    return IQSignal(np.exp(2j * np.pi * freq * t), fs, center)


class TestBasics:
    def test_length_and_duration(self):
        sig = IQSignal(np.zeros(160), 16e6)
        assert len(sig) == 160
        assert sig.duration == pytest.approx(1e-5)

    def test_power_of_unit_tone(self):
        assert tone(1e6).power() == pytest.approx(1.0)

    def test_power_empty(self):
        assert IQSignal(np.zeros(0), 1.0).power() == 0.0

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            IQSignal(np.zeros(4), 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            IQSignal(np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize(
        "dtype, want",
        [
            (np.complex64, np.complex64),
            (np.complex128, np.complex128),
            (np.float32, np.complex128),
            (np.int16, np.complex128),
        ],
    )
    def test_single_precision_samples_stay_single(self, dtype, want):
        samples = np.arange(4).astype(dtype)
        assert IQSignal(samples, 1.0).samples.dtype == want


class TestMixing:
    def test_mixed_to_moves_tone(self):
        """A tone at RF 2440.5 MHz seen from 2440 -> baseband +0.5 MHz;
        retuned to 2441 -> baseband -0.5 MHz."""
        sig = tone(0.5e6, center=2440e6)
        moved = sig.mixed_to(2441e6)
        freq = np.median(instantaneous_frequency(moved))
        assert freq == pytest.approx(-0.5e6, rel=1e-3)

    def test_mixed_to_same_center_is_copy(self):
        sig = tone(1e6, center=2440e6)
        same = sig.mixed_to(2440e6)
        assert np.array_equal(same.samples, sig.samples)
        assert same.samples is not sig.samples

    def test_instantaneous_frequency_of_tone(self):
        sig = tone(0.25e6)
        freqs = instantaneous_frequency(sig)
        assert np.allclose(freqs, 0.25e6, rtol=1e-6)

    def test_instantaneous_frequency_short_signal(self):
        assert instantaneous_frequency(IQSignal(np.ones(1), 1.0)).size == 0
