"""Tests for the MAC service, run over real radios on a quiet medium."""

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import (
    Address,
    FrameType,
    MacFrame,
    build_beacon_request,
    build_data,
)
from repro.dot15d4.mac import MacService

PAN = 0x1234
ADDR_A = Address(pan_id=PAN, address=0x0001)
ADDR_B = Address(pan_id=PAN, address=0x0002)


def sniff(mac):
    """Every FCS-valid frame *mac*'s radio hands its MAC, parsed."""
    frames = []

    def tap(received):
        if received.fcs_ok:
            frames.append(MacFrame.parse(received.psdu))
        mac._on_psdu(received)

    mac.radio.start_rx(tap)
    return frames


@pytest.fixture()
def pair(quiet_medium):
    radio_a = Dot15d4Radio(
        quiet_medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
    )
    radio_b = Dot15d4Radio(
        quiet_medium, name="b", position=(2, 0), rng=np.random.default_rng(2)
    )
    mac_a = MacService(radio_a, address=ADDR_A)
    mac_b = MacService(radio_b, address=ADDR_B)
    mac_a.start()
    mac_b.start()
    return mac_a, mac_b, quiet_medium.scheduler


class TestDataExchange:
    def test_data_delivery(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        mac_a.send_data(ADDR_B, b"hello")
        sched.run(0.01)
        assert len(got) == 1
        assert got[0].payload == b"hello"
        assert got[0].source == ADDR_A

    def test_acknowledgement(self, pair):
        mac_a, mac_b, sched = pair
        results = []
        seq = mac_a.send_data(
            ADDR_B, b"ping", on_result=lambda *r: results.append(r)
        )
        sched.run(0.01)
        assert results == [(seq, True)]
        assert mac_b.stats.acks_sent == 1
        assert mac_a.stats.acks_received == 1

    def test_no_ack_when_not_requested(self, pair):
        mac_a, mac_b, sched = pair
        mac_a.send_frame(build_data(ADDR_A, ADDR_B, b"x", 1, ack_request=False))
        sched.run(0.01)
        assert mac_b.stats.acks_sent == 0

    def test_wrong_destination_filtered(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        other = Address(pan_id=PAN, address=0x0099)
        mac_a.send_data(other, b"not for b")
        sched.run(0.01)
        assert got == []

    def test_wrong_pan_filtered(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        foreign = Address(pan_id=0x9999, address=ADDR_B.address)
        mac_a.send_data(foreign, b"foreign")
        sched.run(0.01)
        assert got == []

    def test_broadcast_accepted(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        broadcast = Address(pan_id=0xFFFF, address=0xFFFF)
        mac_a.send_frame(build_data(ADDR_A, broadcast, b"to all", 1))
        sched.run(0.01)
        assert len(got) == 1

    def test_duplicate_rejected(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        frame = build_data(ADDR_A, ADDR_B, b"dup", sequence_number=7, ack_request=False)
        mac_a.send_frame(frame)
        sched.run(0.01)
        mac_a.send_frame(frame)
        sched.run(0.01)
        assert len(got) == 1
        assert mac_b.stats.duplicates == 1

    def test_new_sequence_not_duplicate(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        for seq in (1, 2):
            mac_a.send_frame(
                build_data(ADDR_A, ADDR_B, b"x", sequence_number=seq, ack_request=False)
            )
            sched.run(0.01)
        assert len(got) == 2


@pytest.fixture()
def parses(monkeypatch):
    """Every ``MacFrame.parse`` call, as ``(psdu, check_fcs)``."""
    calls = []
    parse = MacFrame.parse

    def counted(psdu, check_fcs=True):
        calls.append((psdu, check_fcs))
        return parse(psdu, check_fcs)

    monkeypatch.setattr(MacFrame, "parse", staticmethod(counted))
    return calls


class TestFcsCheckedOnce:
    """The PHY checks the FCS; the MAC trusts its verdict."""

    def test_bad_fcs_counted_and_never_parsed(self, pair, parses):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        psdu = bytearray(build_data(ADDR_A, ADDR_B, b"bad", 9).to_bytes())
        psdu[-1] ^= 0xFF
        mac_a.radio.transmit_psdu(bytes(psdu))
        sched.run(0.01)
        assert mac_b.stats.received_frames == 1
        assert mac_b.stats.fcs_failures == 1
        assert mac_b.stats.acks_sent == 0
        assert got == []
        assert parses == []

    def test_good_frame_parsed_once_without_fcs_check(self, pair, parses):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(got.append)
        mac_a.send_frame(build_data(ADDR_A, ADDR_B, b"good", 1, ack_request=False))
        sched.run(0.01)
        assert [frame.payload for frame in got] == [b"good"]
        assert mac_b.stats.fcs_failures == 0
        assert [check for _psdu, check in parses] == [False]


class TestBeacons:
    def test_coordinator_answers_beacon_request(self, pair):
        mac_a, mac_b, sched = pair
        mac_b.is_coordinator = True
        frames = sniff(mac_a)
        mac_a.send_frame(build_beacon_request())
        sched.run(0.05)
        beacons = [f for f in frames if f.frame_type is FrameType.BEACON]
        assert len(beacons) == 1
        assert beacons[0].frame_type is FrameType.BEACON
        assert beacons[0].source == ADDR_B
        assert mac_b.stats.beacons_sent == 1

    def test_non_coordinator_silent(self, pair):
        mac_a, mac_b, sched = pair
        frames = sniff(mac_a)
        mac_a.send_frame(build_beacon_request())
        sched.run(0.05)
        assert frames == []
        assert mac_b.stats.beacons_sent == 0


class TestSequenceNumbers:
    def test_monotonic_wrapping(self, pair):
        mac_a, _, _ = pair
        mac_a._sequence = 0xFE
        assert mac_a.next_sequence() == 0xFF
        assert mac_a.next_sequence() == 0x00
