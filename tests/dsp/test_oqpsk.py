"""Tests for the O-QPSK half-sine modem (802.15.4 waveform)."""

import numpy as np
import pytest

from repro.dsp.impairments import apply_frequency_offset, awgn
from repro.dsp.msk import chips_to_transitions
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator
from repro.phy.ieee802154 import PN_SEQUENCES

SYNC = np.concatenate([PN_SEQUENCES[0], PN_SEQUENCES[0]])


class TestModulator:
    def test_validation(self):
        with pytest.raises(ValueError):
            OqpskModulator(samples_per_chip=1)
        with pytest.raises(ValueError):
            OqpskModulator(chip_rate=0)

    def test_constant_envelope_interior(self):
        mod = OqpskModulator(samples_per_chip=8)
        sig = mod.modulate(np.tile([1, 0, 0, 1, 1, 1, 0, 1], 8))
        env = np.abs(sig.samples[16:-16])
        assert np.allclose(env, 1.0, atol=1e-9)

    def test_pulse_trains_alternate_channels(self):
        mod = OqpskModulator(samples_per_chip=8)
        i_wave, q_wave = mod.pulse_trains([1, 0])
        # Chip 0 (even) drives I: positive half-sine starting at 0.
        assert i_wave[:16].max() > 0.9
        # Chip 1 (odd) drives Q: negative half-sine delayed by Tc.
        assert q_wave[:8].max() == pytest.approx(0.0)
        assert q_wave[8:24].min() < -0.9

    def test_sample_rate(self):
        mod = OqpskModulator(samples_per_chip=8, chip_rate=2e6)
        assert mod.modulate([1, 0]).sample_rate == 16e6

    def test_pi_over_2_rotation_per_chip(self):
        mod = OqpskModulator(samples_per_chip=16)
        rng = np.random.default_rng(3)
        chips = rng.integers(0, 2, 32).astype(np.uint8)
        sig = mod.modulate(chips)
        phase = sig.instantaneous_phase()
        spc = 16
        steps = np.diff(phase[spc::spc])[: len(chips) - 2]
        assert np.allclose(np.abs(steps), np.pi / 2, atol=1e-2)


class TestDemodulator:
    def _roundtrip(self, chips, impair=None, rng=None):
        mod = OqpskModulator(samples_per_chip=8)
        dem = OqpskDemodulator(samples_per_chip=8)
        stream = np.concatenate([SYNC, chips])
        sig = mod.modulate(stream)
        if impair is not None:
            sig = impair(sig)
        return dem.receive_chips(
            sig, SYNC, sync_start_index=0, max_chips=chips.size
        )

    def test_clean_roundtrip(self, rng):
        chips = rng.integers(0, 2, 256).astype(np.uint8)
        result = self._roundtrip(chips)
        assert result is not None
        decoded, info = result
        assert np.array_equal(decoded, chips)
        assert info.chip_index == SYNC.size

    def test_noisy_roundtrip(self, rng):
        chips = rng.integers(0, 2, 256).astype(np.uint8)
        result = self._roundtrip(chips, impair=lambda s: awgn(s, 12.0, rng))
        assert result is not None
        decoded, _ = result
        errors = np.count_nonzero(decoded != chips)
        assert errors < 10

    def test_cfo_roundtrip(self, rng):
        chips = rng.integers(0, 2, 128).astype(np.uint8)
        result = self._roundtrip(
            chips, impair=lambda s: apply_frequency_offset(s, 40e3)
        )
        assert result is not None
        assert np.array_equal(result[0], chips)

    def test_missing_sync_returns_none(self, rng):
        mod = OqpskModulator(samples_per_chip=8)
        dem = OqpskDemodulator(samples_per_chip=8)
        sig = mod.modulate(rng.integers(0, 2, 64).astype(np.uint8))
        assert (
            dem.receive_chips(sig, SYNC, sync_start_index=0, max_chips=64)
            is None
        )

    def test_short_sync_rejected(self):
        dem = OqpskDemodulator(samples_per_chip=8)
        mod = OqpskModulator(samples_per_chip=8)
        sig = mod.modulate([1, 0, 1, 0])
        with pytest.raises(ValueError):
            dem.receive_chips(sig, [1, 0], 0, 16)

    def test_max_chips_limits_output(self, rng):
        chips = rng.integers(0, 2, 128).astype(np.uint8)
        mod = OqpskModulator(samples_per_chip=8)
        dem = OqpskDemodulator(samples_per_chip=8)
        sig = mod.modulate(np.concatenate([SYNC, chips]))
        result = dem.receive_chips(sig, SYNC, 0, max_chips=32)
        assert result is not None
        assert result[0].size == 32
        assert np.array_equal(result[0], chips[:32])

    def test_cross_demodulation_by_gfsk_receiver(self, rng):
        """The WazaBee RX path: an O-QPSK signal read by an FSK slicer."""
        from repro.dsp.gfsk import FskDemodulator, GfskConfig

        chips = rng.integers(0, 2, 96).astype(np.uint8)
        stream = np.concatenate([SYNC, chips])
        sig = OqpskModulator(samples_per_chip=8).modulate(stream)
        fsk = FskDemodulator(GfskConfig(8, 0.5, None), 2e6)
        template = chips_to_transitions(SYNC)
        disc = fsk.discriminate(sig)
        sync = fsk.find_sync(disc, template, threshold=0.5)
        assert sync is not None
        expected = chips_to_transitions(stream)[template.size :]
        bits = fsk.decide_bits(
            disc, sync.start + template.size * 8, chips.size
        )
        assert np.array_equal(bits, expected[: bits.size])


def _pulse_trains_scalar(mod, chips):
    """The pre-vectorisation per-chip loop, kept as the reference."""
    from repro.utils.bits import as_bit_array

    arr = as_bit_array(chips)
    spc = mod.samples_per_chip
    nrz = arr.astype(np.float64) * 2.0 - 1.0
    length = arr.size * spc + len(mod._pulse) - 1
    i_wave = np.zeros(length)
    q_wave = np.zeros(length)
    for idx, level in enumerate(nrz):
        start = idx * spc
        target = i_wave if idx % 2 == 0 else q_wave
        target[start : start + len(mod._pulse)] += level * mod._pulse
    return i_wave, q_wave


class TestVectorisedPulseTrains:
    """The outer-product rail construction must be bit-exact vs the loop."""

    @pytest.mark.parametrize("spc", [2, 4, 8])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 255])
    def test_matches_scalar_reference(self, spc, count):
        rng = np.random.default_rng(spc * 1000 + count)
        mod = OqpskModulator(samples_per_chip=spc)
        chips = rng.integers(0, 2, count).astype(np.uint8)
        i_ref, q_ref = _pulse_trains_scalar(mod, chips)
        i_fast, q_fast = mod.pulse_trains(chips)
        assert np.array_equal(i_ref, i_fast)
        assert np.array_equal(q_ref, q_fast)


class TestFrontEndReuse:
    """A precomputed front end must decode identically to the default."""

    def test_receive_chips_with_shared_front_end(self):
        rng = np.random.default_rng(3)
        mod = OqpskModulator(samples_per_chip=8)
        dem = OqpskDemodulator(samples_per_chip=8)
        payload = rng.integers(0, 2, 128).astype(np.uint8)
        stream = np.concatenate([SYNC, payload])
        sig = awgn(mod.modulate(stream), snr_db=15.0, rng=rng)
        baseline = dem.receive_chips(
            sig, SYNC, sync_start_index=32, max_chips=payload.size
        )
        front_end = dem.front_end(sig)
        shared_a, shared_b = (
            dem.receive_chip_rows(front_end, [0], [0], SYNC, 32, payload.size)
            for _ in range(2)
        )
        assert baseline is not None and shared_a.rows
        assert np.array_equal(baseline[0], shared_a.chips[0, : shared_a.counts[0]])
        assert np.array_equal(shared_a.chips, shared_b.chips)
        assert baseline[1].sync.start == shared_a.syncs[0].start
