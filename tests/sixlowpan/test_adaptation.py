"""Tests for the 6LoWPAN adaptation layer over real radios."""

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, build_data
from repro.dot15d4.mac import MacService
from repro.sixlowpan import SixLowpanAdaptation
from repro.sixlowpan.fragmentation import REASSEMBLY_TIMEOUT_S, fragment_datagram
from repro.sixlowpan.iphc import compress_datagram, link_iid
from repro.sixlowpan.ipv6 import Ipv6Header, UdpDatagram, link_local_address

PAN = 0x1234
A = Address(pan_id=PAN, address=0x0010)
B = Address(pan_id=PAN, address=0x0020)

#: Inter-fragment gap: one frame's airtime plus the ACK turnaround (the
#: radio is half-duplex).
FRAGMENT_SPACING_S = 5e-3


def send_udp(node, destination_short, source_port, destination_port, payload):
    """Send one UDP datagram from *node*'s MAC as ack-requested fragments,
    spaced in time; returns the MAC sequence numbers used."""
    mac = node.mac
    header = Ipv6Header(
        source=node.address,
        destination=link_local_address(PAN, destination_short),
    )
    compressed = compress_datagram(
        header,
        UdpDatagram(source_port, destination_port, payload).to_bytes(header),
        source_link_iid=link_iid(PAN, mac.address.address),
        destination_link_iid=link_iid(PAN, destination_short),
    )
    destination = Address(pan_id=PAN, address=destination_short)
    scheduler = mac.radio.transceiver.medium.scheduler
    sequences = []
    for index, fragment in enumerate(fragment_datagram(compressed, tag=0)):
        sequences.append(mac.next_sequence())
        frame = build_data(
            mac.address, destination, fragment, sequence_number=sequences[-1]
        )
        scheduler.schedule(
            index * FRAGMENT_SPACING_S, lambda f=frame: mac.send_frame(f)
        )
    return sequences


@pytest.fixture()
def pair(quiet_medium):
    radio_a = Dot15d4Radio(
        quiet_medium, "a", (0, 0), rng=np.random.default_rng(1)
    )
    radio_b = Dot15d4Radio(
        quiet_medium, "b", (3, 0), rng=np.random.default_rng(2)
    )
    radio_a.set_channel(14)
    radio_b.set_channel(14)
    mac_a = MacService(radio_a, A)
    mac_b = MacService(radio_b, B)
    node_a = SixLowpanAdaptation(mac_a)
    node_b = SixLowpanAdaptation(mac_b)
    mac_a.start()
    mac_b.start()
    return node_a, node_b, quiet_medium.scheduler


class TestUdpDelivery:
    def test_short_datagram(self, pair):
        a, b, sched = pair
        got = []
        b.on_udp(got.append)
        send_udp(a, 0x0020, 0xF0B1, 0xF0B2, b"hello")
        sched.run(0.05)
        assert len(got) == 1
        received = got[0]
        assert received.datagram.payload == b"hello"
        assert received.checksum_ok
        assert received.link_source == 0x0010
        assert received.header.pretty_source().startswith("fe80::")

    def test_fragmented_datagram(self, pair):
        a, b, sched = pair
        got = []
        b.on_udp(got.append)
        payload = bytes(range(250))
        sequences = send_udp(a, 0x0020, 5683, 5683, payload)
        assert len(sequences) > 1  # fragmentation happened
        sched.run(0.2)
        assert len(got) == 1
        assert got[0].datagram.payload == payload
        assert b.reassembler.completed == 1

    def test_bidirectional(self, pair):
        a, b, sched = pair
        got_a, got_b = [], []
        a.on_udp(got_a.append)
        b.on_udp(got_b.append)
        send_udp(a, 0x0020, 1111, 2222, b"ping")
        sched.run(0.05)
        send_udp(b, 0x0010, 2222, 1111, b"pong")
        sched.run(0.05)
        assert got_b[0].datagram.payload == b"ping"
        assert got_a[0].datagram.payload == b"pong"

    def test_addresses_derived_from_mac(self, pair):
        a, b, _ = pair
        assert a.address[-2:] == b"\x00\x10"
        assert link_local_address(PAN, 0x0020) == b.address

    def test_counters(self, pair):
        a, b, sched = pair
        b.on_udp(lambda r: None)
        send_udp(a, 0x0020, 1, 2, b"x")
        sched.run(0.05)
        assert b.received_datagrams == 1
        assert b.decode_failures == 0

    def test_reassembly_times_out_on_the_scheduler_clock(self, pair):
        a, b, sched = pair
        got = []
        b.on_udp(got.append)
        send_udp(a, 0x0020, 5683, 5683, bytes(range(250)))
        sched.run(0.2)
        assert len(got) == 1
        # A datagram whose last fragment is lost stays pending...
        header = Ipv6Header(source=a.address, destination=b.address)
        compressed = compress_datagram(
            header,
            UdpDatagram(1, 2, bytes(250)).to_bytes(header),
            source_link_iid=link_iid(PAN, 0x0010),
            destination_link_iid=link_iid(PAN, 0x0020),
        )
        first = fragment_datagram(compressed, tag=5)[0]
        a.mac.send_frame(build_data(A, B, first, sequence_number=60))
        sched.run(0.05)
        assert b.reassembler.pending == 1
        # ...until a frame arrives more than 60 simulated seconds later.
        sched.run(REASSEMBLY_TIMEOUT_S)
        send_udp(a, 0x0020, 1, 2, b"x")
        sched.run(0.05)
        assert b.reassembler.pending == 0
        assert b.reassembler.dropped == 1
        assert len(got) == 2

    def test_garbage_mac_payload_counted(self, pair):
        a, b, sched = pair
        frame = build_data(A, B, b"\x61\x00garbage", sequence_number=50)
        a.mac.send_frame(frame)
        sched.run(0.05)
        assert b.decode_failures == 1

    def test_over_wazabee_pivot(self, quiet_medium, scheduler):
        """The exfiltration path: the UDP sender's MAC frames are injected
        through a diverted BLE chip instead of a native radio."""
        from repro.chips import Nrf52832
        from repro.core.firmware import WazaBeeFirmware

        radio_b = Dot15d4Radio(
            quiet_medium, "sink", (3, 0), rng=np.random.default_rng(2)
        )
        radio_b.set_channel(14)
        mac_b = MacService(radio_b, B)
        sink = SixLowpanAdaptation(mac_b)
        mac_b.start()
        got = []
        sink.on_udp(got.append)

        chip = Nrf52832(quiet_medium, position=(0, 0), rng=np.random.default_rng(3))
        firmware = WazaBeeFirmware(chip, scheduler)
        header = Ipv6Header(
            source=link_local_address(PAN, 0x0010),
            destination=link_local_address(PAN, 0x0020),
        )
        udp = UdpDatagram(0xF0B1, 0xF0B2, b"exfiltrated-secret")
        compressed = compress_datagram(
            header,
            udp.to_bytes(header),
            source_link_iid=link_iid(PAN, 0x0010),
            destination_link_iid=link_iid(PAN, 0x0020),
        )
        for fragment in fragment_datagram(compressed, tag=1):
            frame = build_data(A, B, fragment, sequence_number=9, ack_request=False)
            firmware.send_frame(frame, channel=14)
        scheduler.run(0.05)
        assert len(got) == 1
        assert got[0].datagram.payload == b"exfiltrated-secret"
        assert got[0].checksum_ok
