"""Tests for capability gating across chip models."""

import numpy as np
import pytest

from repro.chips import (
    BleRadioPeripheral,
    CapabilityError,
    Cc1352R1,
    Nrf51822,
    Nrf52832,
)
from repro.chips.capabilities import ChipCapabilities
from repro.chips.smartphone import SMARTPHONE_CAPABILITIES


class TestDescriptors:
    def test_nrf52832_is_fully_flexible(self, quiet_medium):
        chip = Nrf52832(quiet_medium)
        caps = chip.capabilities
        assert caps.supports_le_2m
        assert caps.arbitrary_frequency
        assert caps.can_disable_whitening
        assert caps.can_disable_crc

    def test_cc1352_whitening_locked(self, quiet_medium):
        chip = Cc1352R1(quiet_medium)
        assert not chip.capabilities.can_disable_whitening
        with pytest.raises(CapabilityError):
            chip.set_whitening(False)
        chip.set_whitening(True)  # enabling is always fine

    def test_nrf51822_needs_esb_fallback(self, quiet_medium):
        chip = Nrf51822(quiet_medium)
        assert not chip.capabilities.supports_le_2m
        assert chip.capabilities.supports_esb_2m
        chip.set_data_rate_2m()
        assert chip._esb_mode

    def test_smartphone_has_no_raw_access(self):
        assert not SMARTPHONE_CAPABILITIES.raw_radio_access
        assert not SMARTPHONE_CAPABILITIES.can_disable_crc
        assert not SMARTPHONE_CAPABILITIES.can_disable_whitening


class TestGatingBehaviour:
    def test_frequency_grid_restriction(self, quiet_medium):
        caps = ChipCapabilities(name="grid-locked", arbitrary_frequency=False)
        chip = BleRadioPeripheral(quiet_medium, caps)
        chip.set_frequency(2420e6)  # BLE channel 8 — allowed
        with pytest.raises(CapabilityError):
            chip.set_frequency(2405e6)  # Zigbee 11, not a BLE centre

    def test_no_2m_anywhere_raises(self, quiet_medium):
        caps = ChipCapabilities(
            name="old", supports_le_2m=False, supports_esb_2m=False
        )
        chip = BleRadioPeripheral(quiet_medium, caps)
        with pytest.raises(CapabilityError):
            chip.set_data_rate_2m()

    def test_crc_disable_gated(self, quiet_medium):
        caps = ChipCapabilities(name="locked-crc", can_disable_crc=False)
        chip = BleRadioPeripheral(quiet_medium, caps)
        with pytest.raises(CapabilityError):
            chip.set_crc_enabled(False)

    def test_raw_paths_gated(self, quiet_medium):
        caps = ChipCapabilities(name="hci-only", raw_radio_access=False)
        chip = BleRadioPeripheral(quiet_medium, caps)
        with pytest.raises(CapabilityError):
            chip.set_frequency(2420e6)
        with pytest.raises(CapabilityError):
            chip.set_access_address(0x12345678)
        with pytest.raises(CapabilityError):
            chip.send_raw_bits(np.zeros(8, dtype=np.uint8))
        with pytest.raises(CapabilityError):
            chip.arm_receiver(100, lambda bits: None)

    def test_raw_tx_requires_crc_off(self, quiet_medium):
        chip = Nrf52832(quiet_medium)
        chip.set_data_rate_2m()
        chip.set_frequency(2420e6)
        with pytest.raises(CapabilityError):
            chip.send_raw_bits(np.zeros(8, dtype=np.uint8))

    def test_access_address_width_checked(self, quiet_medium):
        chip = Nrf52832(quiet_medium)
        with pytest.raises(ValueError):
            chip.set_access_address(1 << 32)
