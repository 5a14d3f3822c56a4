"""RFC 4944 §5.3 fragmentation and reassembly.

802.15.4 frames carry ~100 bytes of 6LoWPAN payload; IPv6 requires a
1280-byte MTU, so datagrams are split into a FRAG1 fragment (dispatch
``11000``, carrying the uncompressed datagram size and a tag) followed by
FRAGN fragments (dispatch ``11100``, adding an 8-byte-unit offset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["fragment_datagram", "Reassembler", "FRAG1_DISPATCH", "FRAGN_DISPATCH"]

FRAG1_DISPATCH = 0b11000_000
FRAGN_DISPATCH = 0b11100_000
_HEADER1_SIZE = 4
_HEADERN_SIZE = 5
MAX_DATAGRAM_SIZE = (1 << 11) - 1
#: Largest 6LoWPAN payload per MAC frame before a datagram is fragmented.
MAX_FRAGMENT_PAYLOAD = 96
#: A datagram not reassembled this long after its first fragment arrived
#: is discarded (RFC 4944 §5.3).
REASSEMBLY_TIMEOUT_S = 60.0


def fragment_datagram(datagram: bytes, tag: int) -> List[bytes]:
    """Split *datagram* into fragments of at most
    :data:`MAX_FRAGMENT_PAYLOAD` bytes.

    Returns a single unfragmented payload (no FRAG header) when it fits.
    Offsets are in 8-byte units, so every fragment body except the last is
    trimmed to a multiple of 8.
    """
    if len(datagram) > MAX_DATAGRAM_SIZE:
        raise ValueError("datagram exceeds the 11-bit size field")
    if not 0 <= tag <= 0xFFFF:
        raise ValueError("fragment tag is 16-bit")
    if len(datagram) <= MAX_FRAGMENT_PAYLOAD:
        return [datagram]

    size_tag = (len(datagram) & 0x7FF).to_bytes(2, "big")
    size_tag = bytes([FRAG1_DISPATCH | size_tag[0]]) + size_tag[1:]
    size_tag += tag.to_bytes(2, "big")

    first_body = (MAX_FRAGMENT_PAYLOAD - _HEADER1_SIZE) // 8 * 8
    fragments = [size_tag + datagram[:first_body]]
    offset = first_body
    body_budget = (MAX_FRAGMENT_PAYLOAD - _HEADERN_SIZE) // 8 * 8
    while offset < len(datagram):
        body = datagram[offset : offset + body_budget]
        header = bytes(
            [FRAGN_DISPATCH | ((len(datagram) >> 8) & 0x07)]
        ) + bytes([len(datagram) & 0xFF]) + tag.to_bytes(2, "big") + bytes(
            [offset // 8]
        )
        fragments.append(header + body)
        offset += len(body)
    return fragments


@dataclass
class _PartialDatagram:
    size: int
    started: float
    received: Dict[int, bytes] = field(default_factory=dict, init=False)
    covered: int = field(default=0, init=False)

    def add(self, offset: int, body: bytes) -> bool:
        """Store one fragment's body; False if it runs past the datagram's
        size or overlaps a stored body, which discards the datagram."""
        end = offset + len(body)
        if end > self.size:
            return False
        for start, other in self.received.items():
            if start < end and offset < start + len(other):
                return False
        self.received[offset] = body
        self.covered += len(body)
        return True

    def assembled(self) -> Optional[bytes]:
        """The whole datagram once every byte of it has arrived."""
        if self.covered < self.size:
            return None
        total = bytearray(self.size)
        for offset, body in self.received.items():
            total[offset : offset + len(body)] = body
        return bytes(total)


class Reassembler:
    """Per-(sender, tag) reassembly buffers.

    A fragment that overlaps one already received, or runs past the
    datagram's size, discards the datagram and counts it in
    :attr:`dropped` (RFC 4944 §5.3), so no datagram is ever built from
    bytes its sender did not send.  So does a datagram still incomplete
    :data:`REASSEMBLY_TIMEOUT_S` after its first fragment arrived, so a
    lost fragment does not hold its buffer forever.
    """

    def __init__(self) -> None:
        self._partials: Dict[Tuple[int, int], _PartialDatagram] = {}
        self.completed = 0
        self.dropped = 0

    def accept(self, sender: int, payload: bytes, now: float) -> Optional[bytes]:
        """Feed one link payload received at *now* (seconds); returns a
        whole datagram when complete.

        Non-fragmented payloads are returned immediately.
        """
        self._expire(now)
        if not payload:
            return None
        dispatch = payload[0] & 0b11111000
        if dispatch == FRAG1_DISPATCH:
            header = _HEADER1_SIZE
        elif dispatch == FRAGN_DISPATCH:
            header = _HEADERN_SIZE
        else:
            return payload
        if len(payload) < header:
            self.dropped += 1
            return None
        size = int.from_bytes(payload[0:2], "big") & 0x7FF
        key = (sender, int.from_bytes(payload[2:4], "big"))
        offset = payload[4] * 8 if dispatch == FRAGN_DISPATCH else 0
        partial = self._partials.setdefault(key, _PartialDatagram(size, now))
        if not partial.add(offset, payload[header:]):
            del self._partials[key]
            self.dropped += 1
            return None
        datagram = partial.assembled()
        if datagram is not None:
            del self._partials[key]
            self.completed += 1
        return datagram

    def _expire(self, now: float) -> None:
        for key, partial in list(self._partials.items()):
            if now - partial.started > REASSEMBLY_TIMEOUT_S:
                del self._partials[key]
                self.dropped += 1

    @property
    def pending(self) -> int:
        return len(self._partials)
