"""Tests for the IQSignal container."""

import numpy as np
import pytest

from repro.dsp.signal import IQSignal


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

    def test_energy(self):
        sig = IQSignal(np.ones(10), 1.0)
        assert sig.energy() == pytest.approx(10.0)

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


class TestTransforms:
    def test_scaled(self):
        sig = tone(1e6).scaled(0.5)
        assert sig.power() == pytest.approx(0.25)

    def test_delayed_prepends_zeros(self):
        sig = IQSignal(np.ones(4), 1.0).delayed(2)
        assert len(sig) == 6
        assert np.all(sig.samples[:2] == 0)

    def test_delayed_negative_rejected(self):
        with pytest.raises(ValueError):
            IQSignal(np.ones(4), 1.0).delayed(-1)

    def test_padded_appends_zeros(self):
        sig = IQSignal(np.ones(4), 1.0).padded(3)
        assert len(sig) == 7
        assert np.all(sig.samples[-3:] == 0)

    def test_sliced(self):
        sig = IQSignal(np.arange(10, dtype=complex), 1.0)
        assert np.array_equal(sig.sliced(2, 5).samples, np.arange(2, 5))

    def test_silence(self):
        sig = IQSignal.silence(8, 16e6, 2.44e9)
        assert sig.power() == 0.0
        assert sig.center_frequency == 2.44e9


class TestMixing:
    def test_mixed_to_moves_tone(self):
        """A tone at RF 2440.5 MHz seen from 2440 -> baseband +0.5 MHz;
        retuned to 2441 -> baseband -0.5 MHz."""
        sig = tone(0.5e6, center=2440e6)
        moved = sig.mixed_to(2441e6)
        freq = np.median(moved.instantaneous_frequency())
        assert freq == pytest.approx(-0.5e6, rel=1e-3)

    def test_mixed_to_same_center_is_copy(self):
        sig = tone(1e6, center=2440e6)
        same = sig.mixed_to(2440e6)
        assert np.array_equal(same.samples, sig.samples)
        assert same.samples is not sig.samples

    def test_instantaneous_frequency_of_tone(self):
        sig = tone(0.25e6)
        freqs = sig.instantaneous_frequency()
        assert np.allclose(freqs, 0.25e6, rtol=1e-6)

    def test_instantaneous_frequency_short_signal(self):
        assert IQSignal(np.ones(1), 1.0).instantaneous_frequency().size == 0


class TestAdd:
    def test_add_superposes_and_pads(self):
        a = IQSignal(np.ones(4), 1.0)
        b = IQSignal(np.ones(2), 1.0)
        out = a.add(b)
        assert np.array_equal(out.samples.real, [2, 2, 1, 1])

    def test_add_rejects_rate_mismatch(self):
        with pytest.raises(ValueError):
            IQSignal(np.ones(2), 1.0).add(IQSignal(np.ones(2), 2.0))

    def test_add_rejects_center_mismatch(self):
        a = IQSignal(np.ones(2), 1.0, 2440e6)
        b = IQSignal(np.ones(2), 1.0, 2441e6)
        with pytest.raises(ValueError):
            a.add(b)
