"""Tests for the BLE channel map."""

import pytest

from repro.ble.channels import (
    ALL_CHANNELS,
    channel_for_frequency,
    channel_frequency_hz,
    whitening_init,
)


class TestFrequencies:
    def test_advertising_channels(self):
        assert channel_frequency_hz(37) == 2402e6
        assert channel_frequency_hz(38) == 2426e6
        assert channel_frequency_hz(39) == 2480e6

    def test_data_channel_grid_below_38(self):
        assert channel_frequency_hz(0) == 2404e6
        assert channel_frequency_hz(10) == 2424e6

    def test_data_channel_grid_above_38(self):
        assert channel_frequency_hz(11) == 2428e6
        assert channel_frequency_hz(36) == 2478e6

    def test_table2_ble_channels(self):
        """The BLE side of the paper's Table II."""
        expected = {3: 2410, 8: 2420, 12: 2430, 17: 2440,
                    22: 2450, 27: 2460, 32: 2470, 39: 2480}
        for ch, mhz in expected.items():
            assert channel_frequency_hz(ch) == mhz * 1e6

    def test_all_frequencies_unique(self):
        freqs = {channel_frequency_hz(ch) for ch in ALL_CHANNELS}
        assert len(freqs) == 40

    def test_invalid_channel(self):
        with pytest.raises(ValueError):
            channel_frequency_hz(40)
        with pytest.raises(ValueError):
            channel_frequency_hz(-1)

    def test_inverse_mapping(self):
        for ch in ALL_CHANNELS:
            assert channel_for_frequency(channel_frequency_hz(ch)) == ch
        assert channel_for_frequency(2405e6) is None


class TestHelpers:
    def test_whitening_init(self):
        assert whitening_init(0) == 0x40
        assert whitening_init(8) == 0x48
        assert whitening_init(39) == 0x40 | 39

    def test_whitening_init_validation(self):
        with pytest.raises(ValueError):
            whitening_init(40)
