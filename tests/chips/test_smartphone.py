"""Tests for the smartphone model and its advertising behaviour."""

import numpy as np
import pytest

from repro.ble.packets import ExtendedAdvertisingPdu, PhyMode
from repro.chips.smartphone import MIN_ADVERTISING_INTERVAL_S, SmartphoneBle
from repro.core.radio_api import LowLevelRadio


@pytest.fixture()
def phone(quiet_medium):
    return SmartphoneBle(quiet_medium, rng=np.random.default_rng(1))


class TestApiSurface:
    def test_not_a_low_level_radio(self, phone):
        """The unrooted phone must not satisfy the WazaBee radio interface."""
        assert not isinstance(phone, LowLevelRadio)

    def test_interval_floor_enforced(self, phone, scheduler):
        """The app gets Android's smallest interval and no other."""
        phone.start_extended_advertising(b"")
        scheduler.run(0.35)
        times = [event.time for event in phone.events]
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert gaps == {MIN_ADVERTISING_INTERVAL_S}

    def test_oversized_data_rejected(self, phone):
        with pytest.raises(ValueError):
            phone.start_extended_advertising(bytes(246))
        with pytest.raises(ValueError):
            phone.set_advertising_data(bytes(246))

    def test_padding_constant_matches_paper(self):
        assert SmartphoneBle.aux_data_offset_bytes() == 12  # +4 AD/company = 16


class TestAdvertisingEvents:
    def test_events_scheduled_at_interval(self, phone, scheduler):
        phone.start_extended_advertising(b"\x02\x01\x06")
        scheduler.run(1.05)
        assert len(phone.events) == 11  # t = 0.0 .. 1.0

    def test_csa2_drives_channel_choice(self, phone, scheduler):
        from repro.ble.csa2 import csa2_select
        from repro.ble.packets import ADVERTISING_ACCESS_ADDRESS

        phone.start_extended_advertising(b"\x02\x01\x06")
        scheduler.run(2.0)
        for event in phone.events:
            assert event.secondary_channel == csa2_select(
                event.counter, ADVERTISING_ACCESS_ADDRESS, range(37)
            )

    def test_stop_advertising(self, phone, scheduler):
        phone.start_extended_advertising(b"\x02\x01\x06")
        scheduler.run(0.35)
        phone.stop_advertising()
        count = len(phone.events)
        scheduler.run(1.0)
        assert len(phone.events) == count

    def test_event_callback(self, phone, scheduler):
        seen = []
        phone.start_extended_advertising(b"", event_callback=seen.append)
        scheduler.run(0.25)
        assert len(seen) == len(phone.events) == 3

    def test_on_air_packets_per_event(self, phone, quiet_medium, scheduler):
        """Each event: 3 primary ADV_EXT_IND + 1 AUX_ADV_IND."""
        transmissions = []
        original = quiet_medium.transmit

        def spy(source, signal, power):
            transmissions.append(signal.center_frequency)
            return original(source, signal, power)

        quiet_medium.transmit = spy
        phone.start_extended_advertising(b"\x02\x01\x06")
        scheduler.run(0.09)
        assert len(transmissions) == 4
        assert transmissions[:3] == [2402e6, 2426e6, 2480e6]

    def test_aux_carries_adv_data(self, phone, quiet_medium, scheduler):
        """Decode the AUX_ADV_IND off the air and check the payload."""
        from repro.ble.packets import (
            ADVERTISING_ACCESS_ADDRESS,
            access_address_bits,
            parse_pdu_bits,
        )
        from repro.chips import Nrf52832

        adv_data = b"\x05\xff\x59\x00ab"
        sniffer = Nrf52832(
            quiet_medium, position=(1, 0), rng=np.random.default_rng(9)
        )
        captures = []
        phone.start_extended_advertising(adv_data)
        scheduler.run(0.05)  # first event done; learn the channel
        channel = phone.events[0].secondary_channel
        # Listen for the next event's AUX on its (deterministic) channel.
        from repro.ble.csa2 import csa2_select

        next_channel = csa2_select(1, ADVERTISING_ACCESS_ADDRESS, range(37))
        from repro.ble.channels import channel_frequency_hz

        sniffer.set_data_rate_2m()
        sniffer.transceiver.tune(channel_frequency_hz(next_channel))
        sniffer.transceiver.start_rx(lambda c, t: captures.append(c))
        scheduler.run(0.2)
        assert captures, "no AUX_ADV_IND captured"
        demod = sniffer._demodulator()
        result = demod.demodulate_packet(
            captures[0],
            access_address_bits(ADVERTISING_ACCESS_ADDRESS),
            8 * 80,
        )
        assert result is not None
        pdu, crc_ok = parse_pdu_bits(result[0], channel=next_channel)
        assert crc_ok
        parsed = ExtendedAdvertisingPdu.from_pdu(pdu)
        assert parsed.adv_data == adv_data
