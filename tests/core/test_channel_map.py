"""Tests for Table II — the Zigbee/BLE common-channel map."""

import pytest

from repro.ble.channels import channel_frequency_hz as ble_freq
from repro.core.channel_map import (
    COMMON_CHANNELS,
    ble_channel_for_zigbee,
    reachable_zigbee_channels,
)
from repro.dot15d4.channels import channel_frequency_hz as zigbee_freq

#: The paper's Table II, verbatim.
TABLE_II = {
    12: (3, 2410e6),
    14: (8, 2420e6),
    16: (12, 2430e6),
    18: (17, 2440e6),
    20: (22, 2450e6),
    22: (27, 2460e6),
    24: (32, 2470e6),
    26: (39, 2480e6),
}


class TestTable2:
    def test_exact_match_with_paper(self):
        assert COMMON_CHANNELS == TABLE_II

    def test_every_entry_frequency_consistent(self):
        for zigbee, (ble, freq) in COMMON_CHANNELS.items():
            assert zigbee_freq(zigbee) == freq
            assert ble_freq(ble) == freq

    def test_only_even_zigbee_channels_shared(self):
        assert all(ch % 2 == 0 for ch in COMMON_CHANNELS)
        for odd in (11, 13, 15, 17, 19, 21, 23, 25):
            assert ble_channel_for_zigbee(odd) is None


class TestLookups:
    def test_forward(self):
        assert ble_channel_for_zigbee(14) == 8
        assert ble_channel_for_zigbee(26) == 39

    def test_reachability(self):
        assert reachable_zigbee_channels(arbitrary_tuning=True) == tuple(
            range(11, 27)
        )
        assert reachable_zigbee_channels(arbitrary_tuning=False) == tuple(
            sorted(TABLE_II)
        )
