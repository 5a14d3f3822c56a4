"""Tests for the ablation studies."""

import pytest

from repro.experiments import ablations
from repro.experiments.ablations import (
    FallbackComparison,
    esb_fallback_comparison,
    gaussian_bt_sweep,
    hamming_threshold_sweep,
    modulation_index_sweep,
    whitening_strategy_check,
)
from repro.obs import scoped


@pytest.fixture()
def sweep(monkeypatch):
    """Set the ablations' sweep constants (``SWEEP_CHIPS=1024``, ...) for
    one test."""

    def sweep(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(ablations, name, value)

    return sweep


class TestBtSweep:
    def test_msk_is_error_free(self, sweep):
        sweep(BT_VALUES=(None,), SWEEP_CHIPS=1024)
        rates = gaussian_bt_sweep()
        assert rates["MSK"] == 0.0

    def test_bt_half_is_benign(self, sweep):
        """The headline approximation: BLE's BT=0.5 costs (almost) nothing."""
        sweep(BT_VALUES=(0.5,), SWEEP_CHIPS=2048)
        rates = gaussian_bt_sweep()
        assert rates["BT=0.5"] < 0.01

    def test_error_monotone_in_smearing(self, sweep):
        sweep(BT_VALUES=(0.2, 0.5, 1.0), SWEEP_CHIPS=2048)
        rates = gaussian_bt_sweep()
        assert rates["BT=0.2"] >= rates["BT=0.5"] >= rates["BT=1.0"]


class TestModulationIndexSweep:
    def test_nominal_index_is_clean(self, sweep):
        sweep(H_VALUES=(0.5,), SWEEP_CHIPS=1024)
        rates = modulation_index_sweep()
        assert rates[0.5] < 0.01

    def test_ble_tolerance_window_usable(self, sweep):
        """Anywhere in the BLE-allowed window [0.45, 0.55] the chip error
        rate stays small enough for DSSS to absorb (§IV-B1)."""
        sweep(H_VALUES=(0.45, 0.55), SWEEP_CHIPS=2048)
        rates = modulation_index_sweep()
        assert all(rate < 0.12 for rate in rates.values())


class TestHammingSweep:
    def test_perfect_at_zero_errors(self, sweep):
        sweep(CHIP_ERROR_RATES=(0.0,), HAMMING_TRIALS=100)
        acc = hamming_threshold_sweep()
        assert acc[0.0] == 1.0

    def test_graceful_degradation(self, sweep):
        sweep(CHIP_ERROR_RATES=(0.05, 0.3), HAMMING_TRIALS=400, SWEEP_SEED=1)
        acc = hamming_threshold_sweep()
        assert acc[0.05] > 0.99
        assert acc[0.3] < acc[0.05]

    def test_high_error_rate_still_above_chance(self, sweep):
        sweep(CHIP_ERROR_RATES=(0.2,), HAMMING_TRIALS=400)
        acc = hamming_threshold_sweep()
        assert acc[0.2] > 1 / 16


class TestEsbFallback:
    def test_le2m_beats_esb(self, sweep):
        sweep(FALLBACK_FRAMES=12)
        with scoped() as (_bus, registry):
            comparison = esb_fallback_comparison()
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


class TestWhiteningStrategies:
    def test_equivalence(self):
        raw, on_air, equal = whitening_strategy_check()
        assert equal
        assert raw.size == on_air.size

    @pytest.mark.parametrize("channel", [0, 8, 17, 39])
    def test_any_channel(self, channel):
        _, _, equal = whitening_strategy_check(channel_index=channel)
        assert equal
