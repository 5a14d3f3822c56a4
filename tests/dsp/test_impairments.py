"""Tests for channel impairments."""

import numpy as np
import pytest

from repro.dsp.impairments import apply_frequency_offset, awgn
from repro.dsp.signal import IQSignal
from tests.dsp.impairment_helpers import (
    apply_phase_offset,
    apply_timing_offset,
    instantaneous_frequency,
    noise_floor,
)


def tone(n=4000, fs=16e6):
    t = np.arange(n) / fs
    return IQSignal(np.exp(2j * np.pi * 1e6 * t), fs)


class TestAwgn:
    def test_snr_calibration(self, rng):
        sig = awgn(tone(), 10.0, rng)
        noise_power = np.mean(np.abs(sig.samples - tone().samples) ** 2)
        assert 10 * np.log10(1.0 / noise_power) == pytest.approx(10.0, abs=0.5)

    def test_zero_signal_untouched(self, rng):
        silent = IQSignal(np.zeros(100), 16e6)
        out = awgn(silent, 10.0, rng)
        assert out.power() == 0.0

    def test_reproducible_with_seed(self):
        a = awgn(tone(), 10.0, np.random.default_rng(5))
        b = awgn(tone(), 10.0, np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)


class TestNoiseFloor:
    def test_power_level(self, rng):
        sig = noise_floor(50_000, 16e6, power=1e-6, rng=rng)
        assert sig.power() == pytest.approx(1e-6, rel=0.05)

    def test_center_frequency_kept(self, rng):
        sig = noise_floor(100, 16e6, 1e-9, rng, center_frequency=2.44e9)
        assert sig.center_frequency == 2.44e9


class TestOffsets:
    def test_frequency_offset_shifts_tone(self):
        sig = apply_frequency_offset(tone(), 0.5e6)
        freq = np.median(instantaneous_frequency(sig))
        assert freq == pytest.approx(1.5e6, rel=1e-3)

    def test_zero_frequency_offset_identity(self):
        sig = tone()
        assert np.array_equal(apply_frequency_offset(sig, 0.0).samples, sig.samples)

    def test_phase_offset(self):
        sig = apply_phase_offset(tone(), np.pi / 2)
        assert np.angle(sig.samples[0]) == pytest.approx(np.pi / 2, abs=1e-6)

    def test_zero_phase_offset_identity(self):
        sig = tone()
        assert np.array_equal(apply_phase_offset(sig, 0.0).samples, sig.samples)

    def test_timing_offset_delays(self):
        sig = apply_timing_offset(tone(100), 10)
        assert len(sig) == 110
        assert np.all(sig.samples[:10] == 0)
