"""Integration tests for the cross-modulation pivot — the paper's thesis.

These exercise the full chain at the waveform level, across chips, both
directions, and under the paper's environmental stressors.
"""

import numpy as np
import pytest

from repro.chips import Cc1352R1, Nrf51822, Nrf52832, RzUsbStick
from repro.chips.rzusbstick import Dot15d4Radio
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.channels import ZIGBEE_CHANNELS
from repro.dot15d4.frames import Address, MacFrame, build_data
from repro.radio.medium import RfMedium
from repro.radio.scheduler import Scheduler

SRC = Address(pan_id=0x1234, address=0x0042)
DST = Address(pan_id=0x1234, address=0x0063)

CHIPS = {
    "nRF52832": Nrf52832,
    "CC1352-R1": Cc1352R1,
    "nRF51822": Nrf51822,
}


def make_link(chip_factory, seed=0, noise_dbm=-100.0):
    scheduler = Scheduler()
    medium = RfMedium(scheduler, noise_floor_dbm=noise_dbm)
    chip = chip_factory(
        medium, position=(0, 0), rng=np.random.default_rng(seed + 1)
    )
    zigbee = RzUsbStick(
        medium, position=(3, 0), rng=np.random.default_rng(seed + 2)
    )
    firmware = WazaBeeFirmware(chip, scheduler)
    return scheduler, firmware, zigbee


@pytest.mark.parametrize("chip_name", list(CHIPS))
class TestBothPrimitivesAllChips:
    def test_transmission_primitive(self, chip_name):
        scheduler, firmware, zigbee = make_link(CHIPS[chip_name])
        zigbee.set_channel(14)
        received = []
        zigbee.start_rx(received.append)
        frame = build_data(SRC, DST, b"pivot!", sequence_number=1)
        firmware.send_frame(frame, channel=14)
        scheduler.run(0.01)
        assert len(received) == 1
        assert received[0].fcs_ok
        assert received[0].psdu == frame.to_bytes()

    def test_reception_primitive(self, chip_name):
        scheduler, firmware, zigbee = make_link(CHIPS[chip_name])
        zigbee.set_channel(14)
        got = []
        firmware.start_sniffer(14, lambda f, d: got.append(f))
        zigbee.transmit_frame(build_data(DST, SRC, b"downlink", sequence_number=2))
        scheduler.run(0.01)
        assert len(got) == 1
        assert got[0].payload == b"downlink"


class TestAllChannels:
    @pytest.mark.parametrize("channel", ZIGBEE_CHANNELS)
    def test_every_zigbee_channel_works(self, channel):
        """Requirement 2 of §IV-D: the whole 802.15.4 channel plan is
        reachable from an arbitrary-tuning chip."""
        scheduler, firmware, zigbee = make_link(Nrf52832, seed=channel)
        zigbee.set_channel(channel)
        received = []
        zigbee.start_rx(received.append)
        firmware.send_frame(
            build_data(SRC, DST, bytes([channel]), sequence_number=channel),
            channel=channel,
        )
        scheduler.run(0.01)
        assert len(received) == 1 and received[0].fcs_ok


class TestBidirectionalDialogue:
    def test_wazabee_talks_to_mac_service(self):
        """The diverted chip can hold a two-way exchange: inject a data
        frame with ack_request and hear the acknowledgement."""
        scheduler, firmware, zigbee = make_link(Nrf52832)
        from repro.dot15d4.mac import MacService

        zigbee.set_channel(14)
        mac = MacService(zigbee, address=DST)
        mac.start()
        acks = []
        firmware.start_sniffer(14, lambda f, d: acks.append(f))
        frame = build_data(SRC, DST, b"ping", sequence_number=0x33, ack_request=True)
        firmware.send_frame(frame, channel=14)
        scheduler.run(0.01)
        from repro.dot15d4.frames import FrameType

        ack_frames = [f for f in acks if f.frame_type is FrameType.ACK]
        assert any(f.sequence_number == 0x33 for f in ack_frames)


class TestRobustness:
    def test_survives_realistic_noise_floor(self):
        scheduler, firmware, zigbee = make_link(Nrf52832, noise_dbm=-95.0)
        zigbee.set_channel(14)
        received = []
        zigbee.start_rx(received.append)
        for i in range(10):
            firmware.send_frame(
                build_data(SRC, DST, bytes([i]), sequence_number=i), channel=14
            )
            scheduler.run(0.005)
        assert sum(1 for r in received if r.fcs_ok) >= 9

    def test_fails_gracefully_at_long_range(self):
        """At 300 m the link budget is gone (SNR < 0 dB); nothing decodes
        cleanly, nothing crashes."""
        scheduler = Scheduler()
        medium = RfMedium(scheduler, noise_floor_dbm=-95.0)
        chip = Nrf52832(medium, position=(0, 0), rng=np.random.default_rng(1))
        zigbee = RzUsbStick(medium, position=(300, 0), rng=np.random.default_rng(2))
        zigbee.set_channel(14)
        received = []
        zigbee.start_rx(received.append)
        firmware = WazaBeeFirmware(chip, scheduler)
        firmware.send_frame(build_data(SRC, DST, b"far", sequence_number=1), 14)
        scheduler.run(0.01)
        assert all(not r.fcs_ok for r in received)

    def test_max_size_frame_roundtrip(self):
        scheduler, firmware, zigbee = make_link(Nrf52832)
        zigbee.set_channel(14)
        received = []
        zigbee.start_rx(received.append)
        frame = build_data(SRC, DST, bytes(range(100)), sequence_number=1)
        firmware.send_frame(frame, channel=14)
        scheduler.run(0.01)
        assert len(received) == 1 and received[0].psdu == frame.to_bytes()

    def test_back_to_back_frames(self):
        scheduler, firmware, zigbee = make_link(Nrf52832)
        zigbee.set_channel(14)
        received = []
        zigbee.start_rx(received.append)
        for i in range(5):
            firmware.send_frame(
                build_data(SRC, DST, bytes([i]), sequence_number=i), channel=14
            )
            scheduler.run(0.002)
        assert len([r for r in received if r.fcs_ok]) == 5

    def test_collision_with_native_transmission(self):
        """Two simultaneous same-channel transmissions corrupt each other at
        a receiver placed between them."""
        scheduler = Scheduler()
        medium = RfMedium(scheduler)
        a = Dot15d4Radio(
            medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
        )
        b = Dot15d4Radio(
            medium, name="b", position=(0, 4), rng=np.random.default_rng(2)
        )
        rx = Dot15d4Radio(
            medium, name="rx", position=(0, 2), rng=np.random.default_rng(3)
        )
        for radio in (a, b, rx):
            radio.set_channel(14)
        received = []
        rx.start_rx(received.append)
        frame_a = build_data(SRC, DST, b"aaaa", sequence_number=1)
        frame_b = build_data(SRC, DST, b"bbbb", sequence_number=2)
        a.transmit_frame(frame_a)
        b.transmit_frame(frame_b)
        scheduler.run(0.01)
        clean = [r for r in received if r.fcs_ok]
        assert len(clean) < 2
