"""Tests for Channel Selection Algorithm #2."""

import pytest
from collections import Counter

from repro.ble.csa2 import Csa2Session, channel_identifier, csa2_select

ADV_AA = 0x8E89BED6


class TestChannelIdentifier:
    def test_advertising_aa(self):
        # 0x8E89 ^ 0xBED6 = 0x305F, a value quoted in the spec's sample data.
        assert channel_identifier(ADV_AA) == 0x305F

    def test_validation(self):
        with pytest.raises(ValueError):
            channel_identifier(1 << 32)


class TestSelect:
    def test_deterministic(self):
        assert csa2_select(5, ADV_AA, range(37)) == csa2_select(5, ADV_AA, range(37))

    def test_output_in_channel_map(self):
        used = [1, 5, 9, 20, 36]
        for counter in range(200):
            assert csa2_select(counter, ADV_AA, used) in used

    def test_full_map_uniform(self):
        counts = Counter(
            csa2_select(c, ADV_AA, range(37)) for c in range(65536)
        )
        values = [counts[ch] for ch in range(37)]
        # The algorithm is exactly balanced over the full counter space.
        assert max(values) - min(values) <= 2

    def test_remapping_used_for_missing_channels(self):
        """When the unmapped channel is disabled, remap into the used list."""
        used = [0, 1, 2]
        seen = {csa2_select(c, ADV_AA, used) for c in range(100)}
        assert seen <= set(used)
        assert len(seen) > 1

    def test_different_aa_different_sequence(self):
        seq_a = [csa2_select(c, ADV_AA, range(37)) for c in range(32)]
        seq_b = [csa2_select(c, 0x12345678, range(37)) for c in range(32)]
        assert seq_a != seq_b

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            csa2_select(0, ADV_AA, [])

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValueError):
            csa2_select(0, ADV_AA, [40])

    def test_counter_wraps_16_bits(self):
        assert csa2_select(0x10000, ADV_AA, range(37)) == csa2_select(
            0, ADV_AA, range(37)
        )


class TestSession:
    def test_counter_advances(self):
        session = Csa2Session(ADV_AA)
        events = [session.next_channel() for _ in range(5)]
        assert [e[0] for e in events] == [0, 1, 2, 3, 4]

    def test_matches_direct_selection(self):
        session = Csa2Session(ADV_AA)
        for expected_counter in range(10):
            counter, channel = session.next_channel()
            assert channel == csa2_select(counter, ADV_AA, range(37))

    def test_counter_wraparound(self):
        session = Csa2Session(ADV_AA)
        session.counter = 0xFFFF
        counter, _ = session.next_channel()
        assert counter == 0xFFFF
        counter, _ = session.next_channel()
        assert counter == 0
