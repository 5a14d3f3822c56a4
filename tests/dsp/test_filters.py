"""Tests for pulse shapes and filters."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp import filters
from repro.dsp.filters import (
    apply_filter,
    fir_lowpass,
    fir_spectral_weights,
    gaussian_pulse,
    half_sine_pulse,
    rectangular_pulse,
)
from repro.dsp.gfsk import clear_waveform_caches
from repro.experiments.fleet import run_fleet_campaign
from repro.radio.transceiver import Transceiver
from repro.zigbee.fleet import make_fleet
from tests.dsp import filter_oracle


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


def _noise(shape, seed=0, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


#: Receive filters in use: the fleet and Table III radios (49 taps at 4
#: and 16 Msps) and the similarity study (65 taps).
RX_TAPS = [(1.3e6, 4e6, 49), (1.3e6, 16e6, 49), (0.75e6, 16e6, 65)]


class TestSpectralFilter:
    """apply_filter against the direct-form oracle (tests/dsp/filter_oracle)."""

    @pytest.mark.parametrize("design", RX_TAPS)
    @pytest.mark.parametrize("shape", [(1539,), (5, 2947), (20, 1539), (11159,)])
    def test_within_tolerance_of_convolve(self, design, shape):
        taps = fir_lowpass(*design)
        x = _noise(shape)
        got = apply_filter(taps, x)
        want = filter_oracle.apply_filter(taps, x)
        assert got.shape == want.shape and got.dtype == want.dtype
        errors = filter_oracle.row_errors(got, want)
        assert errors.max() <= filter_oracle.RELATIVE_TOLERANCE

    def test_real_input_stays_real(self):
        taps = fir_lowpass(1.3e6, 16e6, 49)
        x = np.random.default_rng(1).standard_normal((3, 1000))
        got = apply_filter(taps, x)
        assert got.dtype == np.float64
        errors = filter_oracle.row_errors(got, filter_oracle.apply_filter(taps, x))
        assert errors.max() <= filter_oracle.RELATIVE_TOLERANCE

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.complex64, np.complex128, np.int16]
    )
    def test_output_dtype_is_the_direct_forms(self, dtype):
        taps = fir_lowpass(1.3e6, 16e6, 49)
        x = np.ones(300, dtype=dtype)
        want = filter_oracle.apply_filter(taps, x).dtype
        assert apply_filter(taps, x).dtype == want == np.result_type(x, taps)

    @pytest.mark.parametrize("real", [False, True])
    def test_zero_windows_give_positive_zero(self, real):
        """Truncated and sample-dropped stretches filter to +0.0 exactly,
        as the direct form gives, not to a signed round-off residue."""
        taps = fir_lowpass(1.3e6, 4e6, 49)
        half = taps.size // 2
        x = _noise((3, 2947), seed=2)
        if real:
            x = x.real.copy()
        x[0, 1200:] = 0.0  # truncation
        x[1, 300:700] = 0.0  # a sample-drop gap
        x[1, 2000:2030] = 0.0  # a gap shorter than the taps: no dead window
        x[2, :] = 0.0  # all of it
        got = apply_filter(taps, x)
        want = filter_oracle.apply_filter(taps, x)
        dead = np.zeros(x.shape, dtype=bool)
        dead[0, 1200 + half :] = True
        dead[1, 300 + half : 700 - half] = True
        dead[2, :] = True
        parts = got.view(np.float64) if not real else got
        parts_dead = np.repeat(dead, 1 if real else 2, axis=-1)
        assert np.all(parts[parts_dead] == 0.0)
        assert not np.signbit(parts[parts_dead]).any()
        # The oracle's zeros are exactly the dead windows.
        assert np.array_equal(want == 0, dead)
        # Outside them the filter is live and within tolerance.
        assert np.all(got[~dead] != 0)
        live_rows = filter_oracle.row_errors(got[:2], want[:2])
        assert live_rows.max() <= filter_oracle.RELATIVE_TOLERANCE

    @pytest.mark.parametrize("design", RX_TAPS)
    def test_single_precision_output(self, design):
        """Filtering into complex64 (the 802.15.4 receive chain) stays
        within 1e-6 of each row's peak of the complex128 result and keeps
        the exact +0.0 of dead windows."""
        taps = fir_lowpass(*design)
        half = taps.size // 2
        x = _noise((4, 2947), seed=4)
        x[1, 1200:] = 0.0  # truncation
        x[2, 300:700] = 0.0  # a sample-drop gap
        x[3, :] = 0.0  # all of it
        single = apply_filter(taps, x, np.complex64)
        double = apply_filter(taps, x)
        assert single.dtype == np.complex64
        assert filter_oracle.row_errors(single, double).max() <= 1e-6
        dead = np.zeros(x.shape, dtype=bool)
        dead[1, 1200 + half :] = True
        dead[2, 300 + half : 700 - half] = True
        dead[3, :] = True
        parts = single.view(np.float32)[np.repeat(dead, 2, axis=-1)]
        assert np.all(parts == 0.0) and not np.signbit(parts).any()
        assert np.array_equal(double == 0, dead)
        assert apply_filter(taps, list(x), np.complex64).tobytes() == (
            single.tobytes()
        )

    def test_single_precision_weights(self):
        """The float32 weights are the double design rounded once."""
        taps = fir_lowpass(1.3e6, 4e6, 49)
        single = fir_spectral_weights(taps, 3000, np.float32)
        assert single.dtype == np.float32
        assert fir_spectral_weights(taps, 3000, np.float32) is single
        double = fir_spectral_weights(taps, 3000)
        assert single.tobytes() == double.astype(np.float32).tobytes()

    def test_even_taps_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            apply_filter(np.ones(48) / 48, np.ones(100))

    @pytest.mark.parametrize("n", [1, 5, 24, 48, 49, 50])
    def test_rows_shorter_than_taps(self, n):
        taps = fir_lowpass(1.3e6, 4e6, 49)
        x = _noise((2, n), seed=n)
        got = apply_filter(taps, x)
        want = filter_oracle.apply_filter(taps, x)
        assert got.shape == (2, n)
        assert filter_oracle.row_errors(got, want).max() <= (
            filter_oracle.RELATIVE_TOLERANCE
        )

    def test_weights_memo_is_read_only_and_cleared(self):
        taps = fir_lowpass(1.3e6, 4e6, 49)
        weights = fir_spectral_weights(taps, 3000)
        assert fir_spectral_weights(np.array(taps), 3000) is weights
        with pytest.raises(ValueError):
            weights[0] = 1.0
        clear_waveform_caches()
        assert fir_spectral_weights(taps, 3000) is not weights
        assert fir_spectral_weights(taps, 3000).tobytes() == weights.tobytes()

    def test_weights_reject_taps_longer_than_block(self):
        with pytest.raises(ValueError, match="longer"):
            fir_spectral_weights(np.ones(49), 48)

    def test_channelizer_reexports_the_weights(self):
        from repro.phy import channelizer

        assert channelizer.fir_spectral_weights is fir_spectral_weights


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
