"""Minimal IPv6 + UDP representations for the 6LoWPAN layer.

Only what the adaptation layer needs: the fixed IPv6 header, UDP with a
correct checksum over the IPv6 pseudo-header, and the link-local addresses
6LoWPAN derives from 802.15.4 short addresses (RFC 4944 §6: the IID is
formed from the PAN id and the 16-bit short address).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "Ipv6Header",
    "UdpDatagram",
    "link_local_address",
    "udp_checksum",
    "NEXT_HEADER_UDP",
]

NEXT_HEADER_UDP = 17
_LINK_LOCAL_PREFIX = bytes.fromhex("fe80") + bytes(6)


def link_local_address(pan_id: int, short_address: int) -> bytes:
    """RFC 4944 §6 link-local address for a short-addressed node.

    IID = PAN id (with the universal/local bit cleared) : 00FF:FE00 : short
    address, under the fe80::/64 prefix.  Returned as 16 raw bytes.
    """
    if not 0 <= pan_id <= 0xFFFF or not 0 <= short_address <= 0xFFFF:
        raise ValueError("pan id and short address must be 16-bit")
    iid = (
        bytes([(pan_id >> 8) & 0xFD, pan_id & 0xFF])
        + bytes.fromhex("00fffe00")
        + short_address.to_bytes(2, "big")
    )
    return _LINK_LOCAL_PREFIX + iid


@dataclass(frozen=True)
class Ipv6Header:
    """The fixed 40-byte IPv6 header."""

    source: bytes
    destination: bytes
    payload_length: int = 0
    next_header: int = NEXT_HEADER_UDP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    def __post_init__(self) -> None:
        if len(self.source) != 16 or len(self.destination) != 16:
            raise ValueError("IPv6 addresses are 16 bytes")
        if not 0 <= self.flow_label < 1 << 20:
            raise ValueError("flow label is 20 bits")
        if not 0 <= self.traffic_class <= 0xFF:
            raise ValueError("traffic class is 8 bits")
        if not 0 <= self.hop_limit <= 0xFF:
            raise ValueError("hop limit is 8 bits")

    def to_bytes(self) -> bytes:
        word = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return (
            word.to_bytes(4, "big")
            + self.payload_length.to_bytes(2, "big")
            + bytes([self.next_header, self.hop_limit])
            + self.source
            + self.destination
        )

    @staticmethod
    def from_bytes(raw: bytes) -> "Ipv6Header":
        if len(raw) < 40:
            raise ValueError("IPv6 header is 40 bytes")
        word = int.from_bytes(raw[0:4], "big")
        if word >> 28 != 6:
            raise ValueError("not an IPv6 packet")
        return Ipv6Header(
            traffic_class=(word >> 20) & 0xFF,
            flow_label=word & 0xFFFFF,
            payload_length=int.from_bytes(raw[4:6], "big"),
            next_header=raw[6],
            hop_limit=raw[7],
            source=bytes(raw[8:24]),
            destination=bytes(raw[24:40]),
        )

    def pretty_source(self) -> str:
        return str(ipaddress.IPv6Address(self.source))

    def pretty_destination(self) -> str:
        return str(ipaddress.IPv6Address(self.destination))


def _ones_complement_sum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += int.from_bytes(data[i : i + 2], "big")
        total = (total & 0xFFFF) + (total >> 16)
    return total


def udp_checksum(header: Ipv6Header, udp_bytes: bytes) -> int:
    """UDP checksum over the IPv6 pseudo-header (RFC 2460 §8.1)."""
    pseudo = (
        header.source
        + header.destination
        + len(udp_bytes).to_bytes(4, "big")
        + bytes(3)
        + bytes([NEXT_HEADER_UDP])
    )
    value = _ones_complement_sum(pseudo + udp_bytes) ^ 0xFFFF
    return value or 0xFFFF


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram (header fields + payload)."""

    source_port: int
    destination_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.source_port, self.destination_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError("UDP ports are 16-bit")

    @property
    def length(self) -> int:
        return 8 + len(self.payload)

    def to_bytes(self, ip_header: Ipv6Header) -> bytes:
        """Serialise with a valid checksum for *ip_header*."""
        without_checksum = (
            self.source_port.to_bytes(2, "big")
            + self.destination_port.to_bytes(2, "big")
            + self.length.to_bytes(2, "big")
            + b"\x00\x00"
            + self.payload
        )
        checksum = udp_checksum(ip_header, without_checksum)
        return (
            without_checksum[:6]
            + checksum.to_bytes(2, "big")
            + without_checksum[8:]
        )

    @staticmethod
    def from_bytes(
        raw: bytes, ip_header: Optional[Ipv6Header] = None
    ) -> Tuple["UdpDatagram", bool]:
        """Parse; returns ``(datagram, checksum_ok)``.

        The checksum is only verifiable when *ip_header* is supplied.
        """
        if len(raw) < 8:
            raise ValueError("UDP header is 8 bytes")
        length = int.from_bytes(raw[4:6], "big")
        if length < 8 or length > len(raw):
            raise ValueError("bad UDP length")
        datagram = UdpDatagram(
            source_port=int.from_bytes(raw[0:2], "big"),
            destination_port=int.from_bytes(raw[2:4], "big"),
            payload=bytes(raw[8:length]),
        )
        checksum_ok = True
        if ip_header is not None:
            checksum_ok = (
                udp_checksum(ip_header, raw[:6] + b"\x00\x00" + raw[8:length])
                == int.from_bytes(raw[6:8], "big")
            )
        return datagram, checksum_ok
