"""Tests for the modulation-similarity metric (future work, §VIII)."""

import numpy as np
import pytest

from repro.core import similarity
from repro.core.similarity import (
    ModulationScheme,
    REFERENCE_SCHEMES,
    cross_demodulation_ber,
    similarity_matrix,
    viable_pivots,
)

BLE2M = REFERENCE_SCHEMES[0]
BLE1M = REFERENCE_SCHEMES[1]
OQPSK = REFERENCE_SCHEMES[2]
MSK = REFERENCE_SCHEMES[3]


class TestScheme:
    def test_samples_per_symbol(self):
        assert BLE2M.samples_per_symbol() == 8
        assert BLE1M.samples_per_symbol() == 16

    def test_rate_must_divide(self):
        odd = ModulationScheme("odd", symbol_rate=3e6)
        with pytest.raises(ValueError):
            odd.samples_per_symbol()

    def test_oqpsk_modulate_path(self, rng):
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        sig = OQPSK.modulate(bits)
        assert np.allclose(np.abs(sig.samples[16:-16]), 1.0, atol=1e-9)


class TestMetric:
    def test_self_ber_zero_clean(self):
        for scheme in REFERENCE_SCHEMES:
            assert cross_demodulation_ber(scheme, scheme, num_bits=512) < 0.01

    def test_wazabee_pair_is_viable(self):
        """The paper's pivot, as the metric sees it."""
        assert cross_demodulation_ber(BLE2M, OQPSK, num_bits=512) < 0.01
        assert cross_demodulation_ber(OQPSK, BLE2M, num_bits=512) < 0.01

    def test_rate_mismatch_is_not(self):
        assert cross_demodulation_ber(BLE1M, OQPSK, num_bits=512) >= 0.4
        assert cross_demodulation_ber(OQPSK, BLE1M, num_bits=512) >= 0.4

    def test_noise_degrades_not_destroys(self):
        clean = cross_demodulation_ber(BLE2M, OQPSK, num_bits=512)
        noisy = cross_demodulation_ber(BLE2M, OQPSK, num_bits=512, snr_db=8.0)
        assert noisy >= clean
        assert noisy < 0.2

    def test_matrix_and_pivot_listing(self, monkeypatch):
        monkeypatch.setattr(similarity, "REFERENCE_SCHEMES", (BLE2M, BLE1M, OQPSK))
        matrix = similarity_matrix(num_bits=256)
        assert len(matrix) == 9
        pivots = viable_pivots(matrix)
        names = {(tx, rx) for tx, rx, _ in pivots}
        assert (BLE2M.name, OQPSK.name) in names
        assert (BLE1M.name, OQPSK.name) not in names
