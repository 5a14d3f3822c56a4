"""Tests for the GFSK/MSK modem."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import gfsk
from repro.dsp.gfsk import (
    CLIP_LEVEL,
    SYNC_THRESHOLD,
    FskDemodulator,
    FskModulator,
    GfskConfig,
    SyncSearch,
    WaveformCache,
    clear_waveform_caches,
    lazy_capture_power,
    sync_template,
    waveform_cache,
)
from repro.dsp.impairments import apply_frequency_offset, awgn
from repro.dsp.signal import IQSignal
from tests.dsp import sync_oracle


def make_modem(bt=0.5, h=0.5, sps=8, rate=2e6):
    mod = FskModulator(GfskConfig(sps, h, bt), rate)
    dem = FskDemodulator(GfskConfig(sps, h, None), rate)
    return mod, dem


SYNC = np.array([0, 1, 0, 0, 1, 1, 0, 1] * 4, dtype=np.uint8)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GfskConfig(samples_per_symbol=1)
        with pytest.raises(ValueError):
            GfskConfig(modulation_index=5.0)
        with pytest.raises(ValueError):
            GfskConfig(bt=-1.0)

    def test_symbol_rate_validation(self):
        with pytest.raises(ValueError):
            FskModulator(GfskConfig(), 0.0)
        with pytest.raises(ValueError):
            FskDemodulator(GfskConfig(), -1.0)


class TestModulator:
    def test_constant_envelope(self):
        mod, _ = make_modem()
        sig = mod.modulate([1, 0, 1, 1, 0, 0, 1, 0] * 4)
        env = np.abs(sig.samples)
        assert np.allclose(env, 1.0)

    def test_deviation(self):
        mod, _ = make_modem(h=0.5, rate=2e6)
        assert mod.frequency_deviation == pytest.approx(500e3)

    def test_msk_phase_advance_per_symbol(self):
        """Unfiltered h=0.5 must advance the phase by exactly ±π/2/symbol."""
        mod, _ = make_modem(bt=None)
        sig = mod.modulate([1, 1, 0, 1])
        phase = sig.instantaneous_phase()
        sps = 8
        steps = np.diff(phase[sps - 1 :: sps])[:3]
        assert np.allclose(np.abs(steps), np.pi / 2, atol=1e-6)
        # steps cover bits 1,0,1 of the sequence [1,1,0,1]
        assert steps[0] > 0 and steps[1] < 0 and steps[2] > 0

    def test_gaussian_total_phase_preserved(self):
        """The Gaussian filter smears but does not change total phase."""
        bits = [1] * 8
        mod_g, _ = make_modem(bt=0.5)
        mod_m, _ = make_modem(bt=None)
        pg = mod_g.modulate(bits).instantaneous_phase()[-1]
        pm = mod_m.modulate(bits).instantaneous_phase()[-1]
        assert pg == pytest.approx(pm, abs=1e-3)

    def test_frequency_waveform_sign(self):
        mod, _ = make_modem(bt=None)
        wave = mod.frequency_waveform([1, 0])
        assert wave[:8].mean() > 0
        assert wave[8:16].mean() < 0

    def test_sample_rate(self):
        mod, _ = make_modem(sps=8, rate=2e6)
        assert mod.modulate([1, 0]).sample_rate == 16e6


class TestDemodulator:
    def test_clean_roundtrip(self, rng):
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 200).astype(np.uint8)
        bits = np.concatenate([SYNC, payload])
        sig = mod.modulate(bits)
        result = dem.demodulate_packet(sig, SYNC, payload.size)
        assert result is not None
        decoded, sync = result
        assert np.array_equal(decoded, payload)
        assert sync.score > 0.8

    def test_roundtrip_with_noise(self, rng):
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 200).astype(np.uint8)
        sig = awgn(mod.modulate(np.concatenate([SYNC, payload])), 15.0, rng)
        result = dem.demodulate_packet(sig, SYNC, payload.size)
        assert result is not None
        decoded, _ = result
        errors = np.count_nonzero(decoded != payload)
        assert errors <= 2

    def test_roundtrip_with_cfo(self, rng):
        """A 50 kHz offset (10% of deviation) must be absorbed."""
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 200).astype(np.uint8)
        sig = apply_frequency_offset(
            mod.modulate(np.concatenate([SYNC, payload])), 50e3
        )
        result = dem.demodulate_packet(sig, SYNC, payload.size)
        assert result is not None
        decoded, sync = result
        assert np.array_equal(decoded, payload)
        assert sync.dc_offset == pytest.approx(50e3, rel=0.3)

    def test_no_sync_in_noise(self, rng):
        _, dem = make_modem()
        from repro.dsp.signal import IQSignal

        noise = IQSignal(
            0.01 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)),
            16e6,
        )
        assert dem.demodulate_packet(noise, SYNC, 100) is None

    def test_sync_not_found_below_threshold(self, rng):
        mod, dem = make_modem()
        other_sync = SYNC ^ 1
        payload = rng.integers(0, 2, 64).astype(np.uint8)
        sig = mod.modulate(np.concatenate([other_sync, payload]))
        disc = dem.discriminate(sig)
        assert dem.find_sync(disc, SYNC, threshold=0.8) is None

    def test_truncated_capture_returns_available_bits(self, rng):
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 50).astype(np.uint8)
        sig = mod.modulate(np.concatenate([SYNC, payload]))
        result = dem.demodulate_packet(sig, SYNC, 500)
        assert result is not None
        decoded, _ = result
        assert decoded.size <= 500
        assert np.array_equal(decoded[: payload.size], payload)

    def test_discriminate_rejects_rate_mismatch(self):
        _, dem = make_modem()
        from repro.dsp.signal import IQSignal

        with pytest.raises(ValueError):
            dem.discriminate(IQSignal(np.ones(16), 8e6))

    def test_discriminator_clipping(self, rng):
        _, dem = make_modem()
        from repro.dsp.signal import IQSignal

        noise = IQSignal(
            rng.standard_normal(1000) + 1j * rng.standard_normal(1000), 16e6
        )
        disc = dem.discriminate(noise)
        assert np.abs(disc).max() <= CLIP_LEVEL + 1e-9

    def test_search_start_skips_early_match(self, rng):
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 64).astype(np.uint8)
        bits = np.concatenate([SYNC, payload, SYNC, payload])
        sig = mod.modulate(bits)
        disc = dem.discriminate(sig)
        first = dem.find_sync(disc, SYNC)
        template = sync_template(SYNC, 8, disc.dtype)
        later = SyncSearch(disc[None]).lock_rows(
            template, SYNC_THRESHOLD, [0], [first.start + 8]
        )
        assert later.starts[0] > first.start

    def test_soft_symbols_bounds_checked(self):
        _, dem = make_modem()
        with pytest.raises(ValueError):
            dem.soft_symbols(np.zeros(10), start=0, num_symbols=5)

    def test_constant_sync_rejected(self):
        _, dem = make_modem()
        with pytest.raises(ValueError):
            dem.find_sync(np.zeros(100), np.ones(8, dtype=np.uint8))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=32, max_size=128))
    def test_any_payload_roundtrips_cleanly(self, payload):
        mod, dem = make_modem()
        payload = np.array(payload, dtype=np.uint8)
        sig = mod.modulate(np.concatenate([SYNC, payload]))
        result = dem.demodulate_packet(sig, SYNC, payload.size)
        assert result is not None
        assert np.array_equal(result[0], payload)


class TestWaveformCache:
    """The phase-stitched fast path must be indistinguishable from the
    direct convolve→cumsum→exp synthesis."""

    @settings(max_examples=30, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=4, max_size=96))
    def test_matches_direct_modulator(self, bits):
        config = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=0.5)
        cache = WaveformCache(config, 2e6)
        direct = FskModulator(config, 2e6)
        bits = np.array(bits, dtype=np.uint8)
        fast = cache.synthesize(bits)
        ref = direct.modulate_direct(bits).samples
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= 1e-9

    @pytest.mark.parametrize("sps,bt,span", [(4, 0.5, 3), (8, 0.3, 4), (8, None, 3), (10, 0.5, 2)])
    def test_matches_direct_across_configs(self, sps, bt, span, monkeypatch):
        rng = np.random.default_rng(5)
        monkeypatch.setattr(gfsk, "SPAN_SYMBOLS", span)
        config = GfskConfig(samples_per_symbol=sps, modulation_index=0.5, bt=bt)
        cache = WaveformCache(config, 1e6)
        direct = FskModulator(config, 1e6)
        bits = rng.integers(0, 2, 257).astype(np.uint8)
        fast = cache.synthesize(bits)
        ref = direct.modulate_direct(bits).samples
        assert np.max(np.abs(fast - ref)) <= 1e-9

    def test_minimum_length_enforced(self):
        config = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=0.5)
        cache = WaveformCache(config, 2e6)
        with pytest.raises(ValueError):
            cache.synthesize(np.ones(cache.span - 1, dtype=np.uint8))

    def test_modulate_falls_back_below_span(self):
        """Streams shorter than the pulse span use the direct path."""
        mod, _ = make_modem()
        short = np.array([1, 0], dtype=np.uint8)
        via_modulate = mod.modulate(short).samples
        via_direct = mod.modulate_direct(short).samples
        assert np.array_equal(via_modulate, via_direct)

    def test_shared_registry_returns_same_instance(self):
        clear_waveform_caches()
        config = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=0.5)
        a = waveform_cache(config, 2e6)
        b = waveform_cache(config, 2e6)
        assert a is b
        clear_waveform_caches()
        assert waveform_cache(config, 2e6) is not a

    def test_warm_attaches_cache(self):
        mod, _ = make_modem()
        cache = mod.warm()
        assert cache is not None
        assert mod.warm() is cache


class TestFftSyncEquivalence:
    """The time-domain correlator agrees with an independent spectral one
    (``sync_oracle.correlate_fft``) and locks where it does."""

    def test_correlators_agree_numerically(self, rng):
        haystack = rng.standard_normal(5000)
        template = rng.standard_normal(64)
        haystack = rng.standard_normal((3, 5000))
        template = rng.standard_normal(64)
        direct = sync_oracle.correlate_valid(haystack, template)
        fft = sync_oracle.correlate_fft(haystack, template)
        assert direct.shape == fft.shape == (3, 5000 - 64 + 1)
        assert np.max(np.abs(direct - fft)) < 1e-9

    def test_find_sync_identical_under_noise_and_offset(self, rng):
        """Both correlations lock a noisy, offset capture on the same
        sample."""
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 96).astype(np.uint8)
        sig = mod.modulate(np.concatenate([SYNC, payload]))
        sig = apply_frequency_offset(sig, 40e3)
        sig = awgn(sig, snr_db=12.0, rng=rng)
        disc = dem.discriminate(sig)
        template = sync_template(SYNC, 8)
        direct = sync_oracle.correlate_valid(disc[None], template.centered)[0]
        fft = sync_oracle.correlate_fft(disc[None], template.centered)[0]
        assert np.max(np.abs(direct - fft)) < 1e-9
        first = {
            int(np.argmax(corr / template.norm >= 0.45)) for corr in (direct, fft)
        }
        assert len(first) == 1
        lock = dem.find_sync(disc, SYNC)
        assert lock is not None
        assert 0 <= lock.start - first.pop() < 2 * 8

    def test_lazy_power_evaluated_once(self):
        calls = []
        sig = IQSignal(np.exp(1j * np.linspace(0, 20, 400)), 16e6)
        supplier = lazy_capture_power(sig)
        first = supplier()
        second = supplier()
        assert first is second
        assert first.size == len(sig) - 1

    def test_find_sync_accepts_callable_power(self, rng):
        mod, dem = make_modem()
        payload = rng.integers(0, 2, 64).astype(np.uint8)
        sig = mod.modulate(np.concatenate([SYNC, payload]))
        disc = dem.discriminate(sig)
        eager = dem.find_sync(disc, SYNC, power=np.abs(sig.samples[:-1]) ** 2)
        lazy = dem.find_sync(disc, SYNC, power=lazy_capture_power(sig))
        assert eager is not None and lazy is not None
        assert (eager.start, eager.score) == (lazy.start, lazy.score)
