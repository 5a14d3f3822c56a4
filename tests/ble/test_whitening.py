"""Tests for BLE data whitening."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ble.whitening import whiten, whitening_sequence


def spec_diagram_sequence(channel: int, count: int) -> np.ndarray:
    """Independent implementation straight from the spec's register diagram
    (positions 0..6; output at position 6; x^4 tap)."""
    positions = [1] + [(channel >> (5 - i)) & 1 for i in range(6)]
    out = np.empty(count, dtype=np.uint8)
    for i in range(count):
        bit = positions[6]
        out[i] = bit
        new = [0] * 7
        new[0] = bit
        for j in range(1, 7):
            new[j] = positions[j - 1]
        new[4] ^= bit
        positions = new
    return out


class TestSequence:
    @pytest.mark.parametrize("channel", range(40))
    def test_matches_spec_diagram(self, channel):
        """Lengths around one 127-bit period check the tiling."""
        for count in (0, 1, 126, 127, 128, 200, 1000):
            seq = whitening_sequence(channel, count)
            assert seq.dtype == np.uint8
            assert np.array_equal(seq, spec_diagram_sequence(channel, count))

    @pytest.mark.parametrize("count", [127, 200])
    def test_returns_fresh_writable_array(self, count):
        first = whitening_sequence(8, count)
        first[:] = 0
        assert whitening_sequence(8, count).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            whitening_sequence(8, -1)
        with pytest.raises(ValueError):
            whitening_sequence(40, 8)

    def test_period_127(self):
        seq = whitening_sequence(8, 254)
        assert np.array_equal(seq[:127], seq[127:])

    def test_channels_differ(self):
        assert not np.array_equal(
            whitening_sequence(8, 64), whitening_sequence(9, 64)
        )

    def test_first_bit_is_register_output(self):
        # Channel 0 seed: position0=1, channel bits all 0 -> first outputs
        # are the zero channel bits until the 1 reaches position 6.
        seq = whitening_sequence(0, 7)
        assert seq.tolist() == [0, 0, 0, 0, 0, 0, 1]


class TestWhiten:
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=256),
        st.integers(0, 39),
    )
    def test_involution(self, bits, channel):
        arr = np.array(bits, dtype=np.uint8)
        assert np.array_equal(whiten(whiten(arr, channel), channel), arr)

    def test_whiten_changes_bits(self):
        arr = np.zeros(64, dtype=np.uint8)
        assert whiten(arr, 8).any()

    def test_scenario_a_pre_inversion(self):
        """De-whitening applied in advance cancels the radio's whitener —
        the §IV-D trick Scenario A depends on."""
        payload = np.random.default_rng(0).integers(0, 2, 500).astype(np.uint8)
        pre = whiten(payload, 8)
        on_air = whiten(pre, 8)
        assert np.array_equal(on_air, payload)
