"""The 6LoWPAN adaptation layer: UDP datagrams over 802.15.4 MAC frames.

Binds the reassembly and decompression machinery to a
:class:`~repro.dot15d4.mac.MacService`: incoming frames are reassembled,
decompressed and dispatched to the bound UDP handler.  Addressing is
link-local, with IIDs derived from (PAN id, short address) per RFC 4944.
A sender builds its frames from :func:`~repro.sixlowpan.iphc.compress_datagram`
and :func:`~repro.sixlowpan.fragmentation.fragment_datagram`, as the
exfiltration example does through a diverted BLE chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.dot15d4.frames import MacFrame
from repro.dot15d4.mac import MacService
from repro.sixlowpan.fragmentation import Reassembler
from repro.sixlowpan.iphc import decompress_datagram, link_iid
from repro.sixlowpan.ipv6 import Ipv6Header, UdpDatagram, link_local_address

__all__ = ["ReceivedUdp", "SixLowpanAdaptation"]


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

    def __init__(self, mac: MacService):
        self.mac = mac
        self._scheduler = mac.radio.transceiver.medium.scheduler
        self.reassembler = Reassembler()
        self._handler: Optional[UdpHandler] = None
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

    # -- receiving ---------------------------------------------------------------
    def on_udp(self, handler: UdpHandler) -> None:
        self._handler = handler

    def _on_mac_frame(self, frame: MacFrame) -> None:
        if frame.source is None:
            return
        datagram = self.reassembler.accept(
            frame.source.address, frame.payload, self._scheduler.now
        )
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
