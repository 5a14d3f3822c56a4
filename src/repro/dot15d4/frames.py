"""802.15.4 MAC frame codec.

Implements the MAC frame format of IEEE 802.15.4-2015 §7.2 for the frame
types the paper's Scenario B touches: beacons (active scan), data frames
(sensor readings, spoofed readings), acknowledgements, and MAC commands
(Beacon Request).  Security headers are not implemented — the paper's target
network runs unencrypted, and §VII discusses that as the main mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

from repro.dot15d4.fcs import append_fcs, verify_fcs

__all__ = [
    "FrameType",
    "AddressingMode",
    "CommandId",
    "Address",
    "MacFrame",
    "BROADCAST_PAN",
    "BROADCAST_SHORT",
    "build_beacon_request",
    "build_beacon",
    "build_ack",
    "build_data",
]

BROADCAST_PAN = 0xFFFF
BROADCAST_SHORT = 0xFFFF


class FrameType(IntEnum):
    BEACON = 0
    DATA = 1
    ACK = 2
    COMMAND = 3


class AddressingMode(IntEnum):
    NONE = 0
    SHORT = 2
    EXTENDED = 3


class CommandId(IntEnum):
    ASSOCIATION_REQUEST = 0x01
    ASSOCIATION_RESPONSE = 0x02
    DATA_REQUEST = 0x04
    BEACON_REQUEST = 0x07


@dataclass(frozen=True)
class Address:
    """A MAC address: PAN id plus a short (16-bit) or extended (64-bit) id."""

    pan_id: int
    address: int
    mode: AddressingMode = AddressingMode.SHORT

    def __post_init__(self) -> None:
        if not 0 <= self.pan_id <= 0xFFFF:
            raise ValueError("PAN id must be 16-bit")
        if self.mode is AddressingMode.SHORT and not 0 <= self.address <= 0xFFFF:
            raise ValueError("short address must be 16-bit")
        if self.mode is AddressingMode.EXTENDED and not (
            0 <= self.address <= 0xFFFFFFFFFFFFFFFF
        ):
            raise ValueError("extended address must be 64-bit")
        if self.mode is AddressingMode.NONE:
            raise ValueError("use None instead of AddressingMode.NONE addresses")

    @property
    def address_bytes(self) -> bytes:
        size = 2 if self.mode is AddressingMode.SHORT else 8
        return self.address.to_bytes(size, "little")

    def is_broadcast(self) -> bool:
        return (
            self.mode is AddressingMode.SHORT and self.address == BROADCAST_SHORT
        )

    def __str__(self) -> str:
        width = 4 if self.mode is AddressingMode.SHORT else 16
        return f"0x{self.address:0{width}x}@0x{self.pan_id:04x}"


@dataclass
class MacFrame:
    """A decoded (or to-be-encoded) MAC frame."""

    frame_type: FrameType
    sequence_number: int = 0
    destination: Optional[Address] = None
    source: Optional[Address] = None
    payload: bytes = b""
    ack_request: bool = False
    frame_pending: bool = False
    pan_id_compression: bool = False
    frame_version: int = 0
    security_enabled: bool = False

    # -- encoding -----------------------------------------------------------
    def _frame_control(self) -> int:
        dest_mode = self.destination.mode if self.destination else AddressingMode.NONE
        src_mode = self.source.mode if self.source else AddressingMode.NONE
        fcf = int(self.frame_type)
        fcf |= int(self.security_enabled) << 3
        fcf |= int(self.frame_pending) << 4
        fcf |= int(self.ack_request) << 5
        fcf |= int(self.pan_id_compression) << 6
        fcf |= int(dest_mode) << 10
        fcf |= (self.frame_version & 0x3) << 12
        fcf |= int(src_mode) << 14
        return fcf

    def encode(self) -> bytes:
        """MHR + payload, without the FCS."""
        if not 0 <= self.sequence_number <= 0xFF:
            raise ValueError("sequence number must fit one byte")
        out = bytearray()
        out += self._frame_control().to_bytes(2, "little")
        out.append(self.sequence_number)
        if self.destination is not None:
            out += self.destination.pan_id.to_bytes(2, "little")
            out += self.destination.address_bytes
        if self.source is not None:
            if not (self.pan_id_compression and self.destination is not None):
                out += self.source.pan_id.to_bytes(2, "little")
            out += self.source.address_bytes
        out += self.payload
        return bytes(out)

    def to_bytes(self) -> bytes:
        """Full over-the-air MAC frame (MHR + payload + FCS) — the PSDU."""
        return append_fcs(self.encode())

    # -- decoding -----------------------------------------------------------
    @staticmethod
    def parse(psdu: bytes, check_fcs: bool = True) -> "MacFrame":
        """Decode a PSDU.  Raises ``ValueError`` on malformed input.

        The receivers of a transmission parse the same PSDU, so the last
        one's fields are kept; every call checks the FCS and returns a
        frame of its own."""
        global _last_parse
        if len(psdu) < 5:
            raise ValueError("PSDU too short for a MAC frame")
        if check_fcs and not verify_fcs(psdu):
            raise ValueError("FCS check failed")
        last, fields = _last_parse
        if psdu != last:
            fields = vars(MacFrame._decode(psdu))
            _last_parse = (bytes(psdu), fields)
        return MacFrame(**fields)

    @staticmethod
    def _decode(psdu: bytes) -> "MacFrame":
        body = psdu[:-2]
        fcf = int.from_bytes(body[0:2], "little")
        frame_type_value = fcf & 0x7
        try:
            frame_type = FrameType(frame_type_value)
        except ValueError as exc:
            raise ValueError(f"unknown frame type {frame_type_value}") from exc
        frame = MacFrame(
            frame_type=frame_type,
            sequence_number=body[2],
            security_enabled=bool(fcf & (1 << 3)),
            frame_pending=bool(fcf & (1 << 4)),
            ack_request=bool(fcf & (1 << 5)),
            pan_id_compression=bool(fcf & (1 << 6)),
            frame_version=(fcf >> 12) & 0x3,
        )
        dest_mode = AddressingMode((fcf >> 10) & 0x3) if ((fcf >> 10) & 0x3) != 1 else None
        src_mode = AddressingMode((fcf >> 14) & 0x3) if ((fcf >> 14) & 0x3) != 1 else None
        if dest_mode is None or src_mode is None:
            raise ValueError("reserved addressing mode")
        cursor = 3

        def take(n: int) -> bytes:
            nonlocal cursor
            chunk = body[cursor : cursor + n]
            if len(chunk) != n:
                raise ValueError("truncated addressing fields")
            cursor += n
            return chunk

        dest_pan = None
        if dest_mode is not AddressingMode.NONE:
            dest_pan = int.from_bytes(take(2), "little")
            size = 2 if dest_mode is AddressingMode.SHORT else 8
            frame.destination = Address(
                pan_id=dest_pan,
                address=int.from_bytes(take(size), "little"),
                mode=dest_mode,
            )
        if src_mode is not AddressingMode.NONE:
            if frame.pan_id_compression and dest_pan is not None:
                src_pan = dest_pan
            else:
                src_pan = int.from_bytes(take(2), "little")
            size = 2 if src_mode is AddressingMode.SHORT else 8
            frame.source = Address(
                pan_id=src_pan,
                address=int.from_bytes(take(size), "little"),
                mode=src_mode,
            )
        frame.payload = bytes(body[cursor:])
        return frame


#: The PSDU :meth:`MacFrame.parse` decoded last and its fields, replaced
#: as one tuple so that a reader never pairs one PSDU with another's fields.
_last_parse: Tuple[bytes, dict] = (b"", {})

# ---------------------------------------------------------------------------
# Convenience builders for the frames Scenario B exchanges
# ---------------------------------------------------------------------------


def build_beacon_request() -> MacFrame:
    """Broadcast Beacon Request — the active-scan probe (§VI-C step 1)."""
    return MacFrame(
        frame_type=FrameType.COMMAND,
        sequence_number=0,
        destination=Address(pan_id=BROADCAST_PAN, address=BROADCAST_SHORT),
        payload=bytes([CommandId.BEACON_REQUEST]),
    )


def build_beacon(source: Address, sequence_number: int = 0) -> MacFrame:
    """A (non-beacon-enabled) beacon frame, as a PAN coordinator sends it in
    answer to a request."""
    # Beacon order = superframe order = 15; PAN coordinator; association
    # permitted.
    superframe = 0x0F | (0x0F << 4) | (1 << 14) | (1 << 15)
    payload = superframe.to_bytes(2, "little")
    payload += bytes([0x00])  # GTS: none
    payload += bytes([0x00])  # pending addresses: none
    return MacFrame(
        frame_type=FrameType.BEACON,
        sequence_number=sequence_number,
        source=source,
        payload=payload,
    )


def build_ack(sequence_number: int) -> MacFrame:
    """An immediate acknowledgement for *sequence_number* (no frame pending)."""
    return MacFrame(frame_type=FrameType.ACK, sequence_number=sequence_number)


def build_data(
    source: Address,
    destination: Address,
    payload: bytes,
    sequence_number: int = 0,
    ack_request: bool = True,
) -> MacFrame:
    """A data frame with intra-PAN compression when PANs match."""
    return MacFrame(
        frame_type=FrameType.DATA,
        sequence_number=sequence_number,
        destination=destination,
        source=source,
        payload=bytes(payload),
        ack_request=ack_request,
        pan_id_compression=source.pan_id == destination.pan_id,
    )
