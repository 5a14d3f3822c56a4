"""Tests for pulse shapes and filters."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp import filters
from repro.dsp.filters import (
    apply_filter,
    fir_lowpass,
    gaussian_pulse,
    half_sine_pulse,
    rectangular_pulse,
)
from repro.dsp.gfsk import clear_waveform_caches
from repro.experiments.fleet import run_fleet_campaign
from repro.radio.transceiver import Transceiver
from repro.zigbee.fleet import make_fleet


class TestGaussianPulse:
    def test_area_normalisation(self):
        """The pulse integral must equal one symbol period so the MSK
        per-symbol phase advance is preserved."""
        for bt in (0.3, 0.5, 1.0):
            pulse = gaussian_pulse(bt, samples_per_symbol=8, span_symbols=3)
            assert pulse.sum() == pytest.approx(8.0)

    def test_symmetry(self):
        pulse = gaussian_pulse(0.5, 8, 3)
        assert np.allclose(pulse, pulse[::-1])

    def test_narrower_bt_wider_pulse(self):
        """Smaller BT = more smearing = lower peak."""
        low = gaussian_pulse(0.3, 8, 5)
        high = gaussian_pulse(1.0, 8, 5)
        assert low.max() < high.max()

    def test_length(self):
        assert gaussian_pulse(0.5, 8, 3).size == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_pulse(0.0, 8)
        with pytest.raises(ValueError):
            gaussian_pulse(0.5, 0)
        with pytest.raises(ValueError):
            gaussian_pulse(0.5, 8, 0)


class TestHalfSine:
    def test_shape(self):
        pulse = half_sine_pulse(8)
        assert pulse.size == 16
        assert pulse[0] == pytest.approx(0.0)
        assert pulse.max() == pytest.approx(1.0)

    def test_peak_at_center(self):
        pulse = half_sine_pulse(16)
        assert np.argmax(pulse) == 16  # sin(pi/2) at t = Tc

    def test_validation(self):
        with pytest.raises(ValueError):
            half_sine_pulse(0)


class TestRectangular:
    def test_all_ones(self):
        assert np.all(rectangular_pulse(5) == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rectangular_pulse(0)


class TestFirLowpass:
    def test_passband_and_stopband(self):
        fs = 16e6
        taps = fir_lowpass(1.3e6, fs, num_taps=65)
        n = np.arange(4096)
        inband = np.cos(2 * np.pi * 0.5e6 * n / fs)
        outband = np.cos(2 * np.pi * 5e6 * n / fs)
        inband_out = apply_filter(taps, inband)
        outband_out = apply_filter(taps, outband)
        assert np.std(inband_out[100:-100]) > 0.6 * np.std(inband)
        assert np.std(outband_out[100:-100]) < 0.05 * np.std(outband)

    def test_group_delay_compensation(self):
        """apply_filter must keep the output aligned with the input."""
        fs = 16e6
        taps = fir_lowpass(2e6, fs, num_taps=49)
        impulse = np.zeros(201)
        impulse[100] = 1.0
        out = apply_filter(taps, impulse)
        assert np.argmax(np.abs(out)) == 100

    def test_output_length_matches_input(self):
        taps = fir_lowpass(1e6, 16e6, 33)
        x = np.random.default_rng(0).standard_normal(500)
        assert apply_filter(taps, x).size == x.size

    def test_validation(self):
        with pytest.raises(ValueError):
            fir_lowpass(0, 16e6)
        with pytest.raises(ValueError):
            fir_lowpass(9e6, 16e6)  # above Nyquist
        with pytest.raises(ValueError):
            fir_lowpass(1e6, 16e6, num_taps=2)

    def test_even_taps_rejected(self):
        """Even-length taps have a half-sample group delay that
        apply_filter's integer trim would silently shift."""
        with pytest.raises(ValueError, match="odd"):
            fir_lowpass(1e6, 16e6, num_taps=48)

    def test_even_taps_rejected_by_transceiver(self, quiet_medium):
        with pytest.raises(ValueError, match="odd"):
            Transceiver(quiet_medium, name="even", rx_filter_taps=48)


class TestFirLowpassMemo:
    """The design is shared per configuration, read-only and exact."""

    @pytest.mark.parametrize(
        "cutoff, fs, taps", [(1.3e6, 4e6, 49), (1.3e6, 16e6, 65), (1e6, 16e6, 33)]
    )
    def test_equals_fresh_design(self, cutoff, fs, taps):
        expected = sp_signal.firwin(taps, cutoff, fs=fs)
        assert fir_lowpass(cutoff, fs, taps).tobytes() == expected.tobytes()

    def test_read_only(self):
        taps = fir_lowpass(1.3e6, 4e6, num_taps=49)
        with pytest.raises(ValueError):
            taps[0] = 1.0

    def test_call_style_shares_one_entry(self):
        positional = fir_lowpass(1.3e6, 4e6, 49)
        keyword = fir_lowpass(cutoff_hz=1.3e6, sample_rate=4e6, num_taps=49)
        assert positional is keyword

    def test_equal_transceivers_share_taps(self, quiet_medium):
        a = Transceiver(quiet_medium, name="a")
        b = Transceiver(quiet_medium, name="b")
        assert a._filter is b._filter


def test_cold_fleet_build_designs_one_filter(monkeypatch):
    """A 24-node fleet build runs one firwin design, and the cold-start
    reset makes the next build pay for exactly one again."""
    calls = []
    firwin = sp_signal.firwin

    def counting(*args, **kwargs):
        calls.append(args)
        return firwin(*args, **kwargs)

    monkeypatch.setattr(filters.sp_signal, "firwin", counting)
    spec = make_fleet(num_nodes=24, seed=0)
    clear_waveform_caches()
    run_fleet_campaign(spec, duration_s=0.0)
    assert len(calls) == 1
    run_fleet_campaign(spec, duration_s=0.0)
    assert len(calls) == 1
    clear_waveform_caches()
    run_fleet_campaign(spec, duration_s=0.0)
    assert len(calls) == 2
