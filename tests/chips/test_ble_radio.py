"""Tests for the generic BLE radio peripheral."""

import numpy as np
import pytest

from repro.ble.packets import (
    ADVERTISING_ACCESS_ADDRESS,
    AdvNonconnInd,
    PhyMode,
    parse_pdu_bits,
)
from repro.chips import BleRadioPeripheral, Nrf52832
from repro.chips.capabilities import ChipCapabilities


@pytest.fixture()
def chip_pair(quiet_medium):
    tx = Nrf52832(quiet_medium, name="tx", position=(0, 0), rng=np.random.default_rng(1))
    rx = Nrf52832(quiet_medium, name="rx", position=(2, 0), rng=np.random.default_rng(2))
    return tx, rx


def configure_raw(chip, aa=0x71764129):
    chip.set_data_rate_2m()
    chip.set_frequency(2440e6)
    chip.set_access_address(aa)
    chip.set_crc_enabled(False)
    chip.set_whitening(False)


class TestRawPath:
    def test_raw_bits_loopback(self, chip_pair, scheduler, rng):
        tx, rx = chip_pair
        configure_raw(tx)
        configure_raw(rx)
        payload = rng.integers(0, 2, 300).astype(np.uint8)
        got = []
        rx.arm_receiver(payload.size, got.append)
        tx.send_raw_bits(payload)
        scheduler.run(0.01)
        assert len(got) == 1
        assert np.array_equal(got[0], payload)

    def test_whitened_raw_loopback(self, chip_pair, scheduler, rng):
        """With whitening enabled at both ends the payload still survives
        (whiten at TX, de-whiten at RX)."""
        tx, rx = chip_pair
        configure_raw(tx)
        configure_raw(rx)
        tx.set_whitening(True, channel=8)
        rx.set_whitening(True, channel=8)
        payload = rng.integers(0, 2, 160).astype(np.uint8)
        got = []
        rx.arm_receiver(payload.size, got.append)
        tx.send_raw_bits(payload)
        scheduler.run(0.01)
        assert len(got) == 1
        assert np.array_equal(got[0], payload)

    def test_wrong_access_address_ignored(self, chip_pair, scheduler, rng):
        tx, rx = chip_pair
        configure_raw(tx, aa=0x71764129)
        configure_raw(rx, aa=0x9B3A11C5)
        got = []
        rx.arm_receiver(100, got.append)
        tx.send_raw_bits(rng.integers(0, 2, 100).astype(np.uint8))
        scheduler.run(0.01)
        assert got == []

    def test_disarm_stops_reception(self, chip_pair, scheduler, rng):
        tx, rx = chip_pair
        configure_raw(tx)
        configure_raw(rx)
        got = []
        rx.arm_receiver(100, got.append)
        rx.disarm_receiver()
        tx.send_raw_bits(rng.integers(0, 2, 100).astype(np.uint8))
        scheduler.run(0.01)
        assert got == []

    def test_esb_mode_degrades_but_works(self, quiet_medium, scheduler, rng):
        from repro.chips import Nrf51822

        tx = Nrf52832(quiet_medium, position=(0, 0), rng=np.random.default_rng(4))
        rx = Nrf51822(quiet_medium, position=(2, 0), rng=np.random.default_rng(5))
        configure_raw(tx)
        configure_raw(rx)
        assert rx._esb_mode
        payload = rng.integers(0, 2, 400).astype(np.uint8)
        got = []
        rx.arm_receiver(payload.size, got.append)
        tx.send_raw_bits(payload)
        scheduler.run(0.01)
        assert len(got) == 1
        errors = np.count_nonzero(got[0] != payload)
        assert errors < payload.size // 4  # noisy, but far from random


class TestReceivePrecision:
    def test_ble_filter_stays_double_precision(self, chip_pair):
        """Only the 802.15.4 radio narrows its receive chain: a BLE chip
        (the WazaBee RX primitive) filters in complex128."""
        _tx, rx = chip_pair
        samples = np.exp(1j * np.linspace(0.0, 40.0, 600))
        assert rx.transceiver.capture_dtype is None
        assert rx.transceiver.filter_samples(samples).dtype == np.complex128
        stacked = rx.transceiver.filter_samples([samples, samples])
        assert stacked.dtype == np.complex128


class TestPduPath:
    def test_legitimate_advertising_decodes(self, chip_pair, scheduler):
        tx, rx = chip_pair
        pdu = AdvNonconnInd(bytes.fromhex("c0ffee123456"), b"\x02\x01\x06").to_pdu()
        captured = []
        rx.transceiver.tune(2402e6)
        rx.set_data_rate_1m()
        rx.transceiver.start_rx(lambda c, t: captured.append(c))
        tx.set_data_rate_1m()
        tx.transmit_pdu(pdu, channel=37, phy=PhyMode.LE_1M)
        scheduler.run(0.01)
        assert len(captured) == 1
        demod = rx._demodulator()
        from repro.ble.packets import access_address_bits

        result = demod.demodulate_packet(
            captured[0],
            access_address_bits(ADVERTISING_ACCESS_ADDRESS),
            8 * (len(pdu) + 3),
        )
        assert result is not None
        parsed, crc_ok = parse_pdu_bits(result[0], channel=37)
        assert parsed == pdu and crc_ok

    def test_phy_mode_property(self, quiet_medium):
        chip = Nrf52832(quiet_medium)
        chip.set_data_rate_1m()
        assert chip.phy_mode is PhyMode.LE_1M
        chip.set_data_rate_2m()
        assert chip.phy_mode is PhyMode.LE_2M

    def test_sample_rate_must_divide(self, scheduler):
        from repro.radio.medium import RfMedium

        odd_medium = RfMedium(scheduler, sample_rate=15e6)
        chip = BleRadioPeripheral(
            odd_medium, ChipCapabilities(name="x"), rng=np.random.default_rng(0)
        )
        chip.set_data_rate_2m()
        with pytest.raises(ValueError):
            chip._samples_per_symbol()


class TestControllerCrcFilter:
    """§VI-B: with the hardware CRC check on, foreign frames never reach
    the host — the reason WazaBee RX requires ``can_disable_crc``."""

    def test_zigbee_frame_dropped_when_crc_enabled(
        self, quiet_medium, scheduler, rng
    ):
        from repro.chips import RzUsbStick
        from repro.core.encoding import wazabee_access_address
        from repro.core.rx import MAX_CAPTURE_BITS
        from repro.dot15d4.frames import Address, build_data

        chip = Nrf52832(quiet_medium, position=(0, 0), rng=np.random.default_rng(1))
        zigbee = RzUsbStick(
            quiet_medium, position=(2, 0), rng=np.random.default_rng(2)
        )
        zigbee.set_channel(14)
        chip.set_data_rate_2m()
        chip.set_frequency(2420e6)
        chip.set_access_address(wazabee_access_address())
        chip.set_whitening(False)
        # CRC checking left ON: the controller filters everything foreign.
        got = []
        chip.arm_receiver(MAX_CAPTURE_BITS, got.append)
        zigbee.transmit_frame(
            build_data(
                Address(pan_id=1, address=1),
                Address(pan_id=1, address=2),
                b"not-a-ble-frame",
                sequence_number=1,
            )
        )
        scheduler.run(0.01)
        assert got == []

        # Disabling the CRC (requirement 4 of §IV-D) lets the frame through.
        chip.set_crc_enabled(False)
        zigbee.transmit_frame(
            build_data(
                Address(pan_id=1, address=1),
                Address(pan_id=1, address=2),
                b"now-visible",
                sequence_number=2,
            )
        )
        scheduler.run(0.01)
        assert len(got) == 1

    def test_valid_ble_raw_frame_passes_crc_filter(
        self, chip_pair, scheduler, rng
    ):
        """A well-formed PDU+CRC bit stream survives the filter."""
        from repro.ble.crc import ble_crc24_bits
        from repro.utils.bits import bytes_to_bits

        tx, rx = chip_pair
        configure_raw(tx)
        configure_raw(rx)
        rx.set_crc_enabled(True)  # RX filters, TX still sends raw
        pdu = bytes([0x02, 0x03]) + b"abc"
        payload = np.concatenate([bytes_to_bits(pdu), ble_crc24_bits(pdu)])
        got = []
        rx.arm_receiver(payload.size, got.append)
        tx.send_raw_bits(payload)
        scheduler.run(0.01)
        assert len(got) == 1
