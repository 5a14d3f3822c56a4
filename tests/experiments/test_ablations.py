"""Tests for the ablation studies."""

import pytest

from repro.experiments.ablations import (
    FallbackComparison,
    data_rate_requirement_check,
    esb_fallback_comparison,
    gaussian_bt_sweep,
    hamming_threshold_sweep,
    modulation_index_sweep,
    whitening_strategy_check,
)
from repro.obs import scoped


class TestBtSweep:
    def test_msk_is_error_free(self):
        rates = gaussian_bt_sweep(bt_values=(None,), num_chips=1024)
        assert rates["MSK"] == 0.0

    def test_bt_half_is_benign(self):
        """The headline approximation: BLE's BT=0.5 costs (almost) nothing."""
        rates = gaussian_bt_sweep(bt_values=(0.5,), num_chips=2048)
        assert rates["BT=0.5"] < 0.01

    def test_error_monotone_in_smearing(self):
        rates = gaussian_bt_sweep(bt_values=(0.2, 0.5, 1.0), num_chips=2048)
        assert rates["BT=0.2"] >= rates["BT=0.5"] >= rates["BT=1.0"]


class TestModulationIndexSweep:
    def test_nominal_index_is_clean(self):
        rates = modulation_index_sweep(h_values=(0.5,), num_chips=1024)
        assert rates[0.5] < 0.01

    def test_ble_tolerance_window_usable(self):
        """Anywhere in the BLE-allowed window [0.45, 0.55] the chip error
        rate stays small enough for DSSS to absorb (§IV-B1)."""
        rates = modulation_index_sweep(h_values=(0.45, 0.55), num_chips=2048)
        assert all(rate < 0.12 for rate in rates.values())


class TestHammingSweep:
    def test_perfect_at_zero_errors(self):
        acc = hamming_threshold_sweep(chip_error_rates=(0.0,), trials=100)
        assert acc[0.0] == 1.0

    def test_graceful_degradation(self):
        acc = hamming_threshold_sweep(
            chip_error_rates=(0.05, 0.3), trials=400, seed=1
        )
        assert acc[0.05] > 0.99
        assert acc[0.3] < acc[0.05]

    def test_high_error_rate_still_above_chance(self):
        acc = hamming_threshold_sweep(chip_error_rates=(0.2,), trials=400)
        assert acc[0.2] > 1 / 16


class TestEsbFallback:
    def test_le2m_beats_esb(self):
        with scoped() as (_bus, registry):
            comparison = esb_fallback_comparison(frames=12, seed=3)
        assert comparison.le2m_valid_rate >= comparison.esb_valid_rate
        assert comparison.le2m_valid_rate > 0.8
        # The fallback is degraded "but sufficient" (§VI-C).
        assert comparison.esb_valid_rate > 0.3
        # Pinned: a change to how the bench is built or driven must not
        # move this ablation's numbers or its decode counters.
        assert comparison == FallbackComparison(
            le2m_valid_rate=1.0, esb_valid_rate=1.0, frames=12
        )
        assert registry.counter_values() == {
            "firmware.raw_frames": 24,
            "firmware.sniffed_frames": 24,
            "medium.deliveries.delivered": 24,
            "medium.deliveries.scheduled": 24,
            "medium.transmissions": 24,
            "rx.captures": 24,
            "rx.decode.ok": 24,
            "rx.fcs.ok": 24,
            "rx.frames.valid_delivered": 24,
            "scheduler.events": 24,
        }


    @pytest.mark.parametrize("frames", [0, -3])
    def test_frame_count_must_be_positive(self, frames):
        with pytest.raises(ValueError, match="frames must be >= 1"):
            esb_fallback_comparison(frames=frames)
        with pytest.raises(ValueError, match="frames must be >= 1"):
            data_rate_requirement_check(frames=frames)


class TestWhiteningStrategies:
    def test_equivalence(self):
        raw, on_air, equal = whitening_strategy_check()
        assert equal
        assert raw.size == on_air.size

    @pytest.mark.parametrize("channel", [0, 8, 17, 39])
    def test_any_channel(self, channel):
        _, _, equal = whitening_strategy_check(channel_index=channel)
        assert equal
