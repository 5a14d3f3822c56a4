"""The 6LoWPAN adaptation layer: UDP datagrams over 802.15.4 MAC frames.

Binds the compression and fragmentation machinery to a
:class:`~repro.dot15d4.mac.MacService`: outgoing UDP sends become one or
more MAC data frames; incoming frames are reassembled, decompressed and
dispatched to the bound UDP handler.  Addressing is link-local, with IIDs
derived from (PAN id, short address) per RFC 4944.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.dot15d4.frames import Address, MacFrame
from repro.dot15d4.mac import MacService
from repro.sixlowpan.fragmentation import Reassembler, fragment_datagram
from repro.sixlowpan.iphc import compress_datagram, decompress_datagram, link_iid
from repro.sixlowpan.ipv6 import Ipv6Header, UdpDatagram, link_local_address

__all__ = ["ReceivedUdp", "SixLowpanAdaptation"]

#: Inter-fragment gap; must exceed one frame's airtime plus the
#: acknowledgement turnaround (the radio is half-duplex).
FRAGMENT_SPACING_S = 5e-3


@dataclass(frozen=True)
class ReceivedUdp:
    """A delivered UDP datagram with its reconstructed IPv6 context."""

    header: Ipv6Header
    datagram: UdpDatagram
    checksum_ok: bool
    link_source: int


UdpHandler = Callable[[ReceivedUdp], None]


class SixLowpanAdaptation:
    """One node's 6LoWPAN stack instance."""

    def __init__(self, mac: MacService, hop_limit: int = 64):
        self.mac = mac
        self.hop_limit = hop_limit
        self.reassembler = Reassembler()
        self._handler: Optional[UdpHandler] = None
        self._next_tag = 0
        self.sent_datagrams = 0
        self.received_datagrams = 0
        self.decode_failures = 0
        mac.on_data(self._on_mac_frame)

    # -- addressing -----------------------------------------------------------
    @property
    def address(self) -> bytes:
        """This node's link-local IPv6 address."""
        return link_local_address(
            self.mac.address.pan_id, self.mac.address.address
        )

    def neighbour_address(self, short_address: int) -> bytes:
        return link_local_address(self.mac.address.pan_id, short_address)

    # -- sending ---------------------------------------------------------------
    def send_udp(
        self,
        destination_short: int,
        source_port: int,
        destination_port: int,
        payload: bytes,
        ack: bool = True,
    ) -> List[int]:
        """Send a UDP datagram; returns the MAC sequence numbers used."""
        destination_ip = self.neighbour_address(destination_short)
        header = Ipv6Header(
            source=self.address,
            destination=destination_ip,
            hop_limit=self.hop_limit,
        )
        udp = UdpDatagram(source_port, destination_port, payload)
        udp_bytes = udp.to_bytes(header)
        compressed = compress_datagram(
            header,
            udp_bytes,
            source_link_iid=link_iid(
                self.mac.address.pan_id, self.mac.address.address
            ),
            destination_link_iid=link_iid(
                self.mac.address.pan_id, destination_short
            ),
        )
        tag = self._next_tag
        self._next_tag = (self._next_tag + 1) & 0xFFFF
        fragments = fragment_datagram(compressed, tag=tag)
        destination = Address(
            pan_id=self.mac.address.pan_id, address=destination_short
        )
        # Fragments are spaced out in time: the link is half-duplex and the
        # receiver must acknowledge each frame before the next arrives.
        scheduler = self.mac.radio.transceiver.medium.scheduler
        sequences: List[int] = []
        for index, fragment in enumerate(fragments):
            sequences.append(self.mac.next_sequence())

            def send(fragment=fragment, sequence=sequences[-1]) -> None:
                from repro.dot15d4.frames import build_data

                frame = build_data(
                    source=self.mac.address,
                    destination=destination,
                    payload=fragment,
                    sequence_number=sequence,
                    ack_request=ack,
                )
                if self.mac.security is not None:
                    frame = self.mac.security.protect(frame)
                self.mac.send_frame(frame)

            if index == 0:
                send()
            else:
                scheduler.schedule(index * FRAGMENT_SPACING_S, send)
        self.sent_datagrams += 1
        return sequences

    # -- receiving ---------------------------------------------------------------
    def on_udp(self, handler: UdpHandler) -> None:
        self._handler = handler

    def _on_mac_frame(self, frame: MacFrame) -> None:
        if frame.source is None:
            return
        datagram = self.reassembler.accept(frame.source.address, frame.payload)
        if datagram is None:
            return
        try:
            header, transport = decompress_datagram(
                datagram,
                source_link_iid=link_iid(
                    frame.source.pan_id, frame.source.address
                ),
                destination_link_iid=link_iid(
                    self.mac.address.pan_id, self.mac.address.address
                ),
            )
            udp, checksum_ok = UdpDatagram.from_bytes(transport, header)
        except ValueError:
            self.decode_failures += 1
            return
        self.received_datagrams += 1
        if self._handler is not None:
            self._handler(
                ReceivedUdp(
                    header=header,
                    datagram=udp,
                    checksum_ok=checksum_ok,
                    link_source=frame.source.address,
                )
            )
