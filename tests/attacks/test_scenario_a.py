"""Tests for Scenario A — smartphone injection via extended advertising."""

import numpy as np
import pytest

from repro.attacks.scenario_a import SmartphoneInjectionAttack, forge_advertising_data
from repro.ble.whitening import whiten
from repro.chips.smartphone import SmartphoneBle
from repro.core.encoding import frame_to_msk_bits
from repro.dot15d4.frames import Address, build_data
from repro.utils.bits import bytes_to_bits

SRC = Address(pan_id=0x1234, address=0x0063)
DST = Address(pan_id=0x1234, address=0x0042)


def forged_frame(seq=0xA5):
    return build_data(SRC, DST, b"\x10\xef\xbe\x39\x05", sequence_number=seq,
                      ack_request=False)


class TestForging:
    def test_structure_is_manufacturer_ad(self):
        ad = forge_advertising_data(forged_frame().to_bytes(), ble_channel=8)
        assert ad[1] == 0xFF  # manufacturer-specific data
        assert ad[0] == len(ad) - 1

    def test_dewhitening_selects_channel(self):
        """After whitening for the *right* channel, the controlled region
        reproduces the MSK chip stream exactly."""
        psdu = forged_frame().to_bytes()
        ad = forge_advertising_data(psdu, ble_channel=8)
        padding = 12  # PDU header + extended header bytes before adv_data
        pdu_bits_controlled = bytes_to_bits(ad)  # adv_data = AD structures
        full_pdu_bits = np.concatenate(
            [np.zeros(8 * padding, dtype=np.uint8), pdu_bits_controlled]
        )
        on_air = whiten(full_pdu_bits, 8)
        expected = frame_to_msk_bits(psdu)
        region = on_air[8 * 16 : 8 * 16 + expected.size]
        assert np.array_equal(region, expected)

    def test_wrong_channel_scrambles(self):
        psdu = forged_frame().to_bytes()
        ad = forge_advertising_data(psdu, ble_channel=8)
        full = np.concatenate(
            [np.zeros(8 * 12, dtype=np.uint8), bytes_to_bits(ad)]
        )
        on_air_wrong = whiten(full, 9)
        expected = frame_to_msk_bits(psdu)
        region = on_air_wrong[8 * 16 : 8 * 16 + expected.size]
        assert not np.array_equal(region, expected)

    def test_frame_too_large_rejected(self):
        big = build_data(SRC, DST, bytes(60), sequence_number=1).to_bytes()
        with pytest.raises(ValueError):
            forge_advertising_data(big, ble_channel=8)


class TestAttack:
    def test_unreachable_channel_rejected(self, quiet_medium):
        phone = SmartphoneBle(quiet_medium, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            SmartphoneInjectionAttack(phone, zigbee_channel=15, frame=forged_frame())

    def test_records_channel_lottery(self, quiet_medium, scheduler):
        phone = SmartphoneBle(quiet_medium, rng=np.random.default_rng(1))
        attack = SmartphoneInjectionAttack(
            phone, zigbee_channel=14, frame=forged_frame()
        )
        attack.start()
        scheduler.run(5.0)
        attack.stop()
        assert attack.events_total == 51
        assert attack.events_on_target == sum(
            1 for r in attack.records if r.event.secondary_channel == 8
        )
        assert 0 <= attack.hit_rate() <= 1

    def test_hit_rate_empty(self, quiet_medium):
        phone = SmartphoneBle(quiet_medium, rng=np.random.default_rng(1))
        attack = SmartphoneInjectionAttack(
            phone, zigbee_channel=14, frame=forged_frame()
        )
        assert attack.hit_rate() == 0.0

    def test_sequence_rotation(self, quiet_medium, scheduler):
        """Advertising data changes between events (anti-dedupe)."""
        phone = SmartphoneBle(quiet_medium, rng=np.random.default_rng(1))
        attack = SmartphoneInjectionAttack(
            phone, zigbee_channel=14, frame=forged_frame()
        )
        attack.start()
        scheduler.run(0.05)
        first = phone._adv_data
        scheduler.run(0.2)
        assert phone._adv_data != first


class TestEndToEnd:
    def test_injection_lands_on_zigbee_receiver(self, quiet_medium, scheduler):
        """Force the channel draw by waiting for an on-target event and
        verify the RZUSBStick decodes the forged frame."""
        from repro.chips import RzUsbStick

        phone = SmartphoneBle(quiet_medium, rng=np.random.default_rng(1))
        zigbee = RzUsbStick(
            quiet_medium, position=(3, 0), rng=np.random.default_rng(2)
        )
        zigbee.set_channel(14)
        received = []
        zigbee.start_rx(received.append)
        attack = SmartphoneInjectionAttack(
            phone, zigbee_channel=14, frame=forged_frame()
        )
        attack.start()
        # Run until at least two on-target events have fired.
        for _ in range(400):
            scheduler.run(0.1)
            if attack.events_on_target >= 2:
                break
        attack.stop()
        assert attack.events_on_target >= 2
        valid = [r for r in received if r.fcs_ok]
        assert len(valid) >= 1
        from repro.dot15d4.frames import MacFrame

        frame = MacFrame.parse(valid[0].psdu)
        assert frame.source == SRC and frame.destination == DST
