"""XBee application payload formats.

Digi's XBee modules expose an AT-command configuration interface that can be
driven *remotely* over the air; Vaccari et al. ("Remotely exploiting AT
command attacks on Zigbee networks", 2017 — the paper's [28]) showed that an
unauthenticated remote AT command can rewrite a node's configuration, e.g.
force it onto another channel.  Scenario B forges exactly that frame with
the coordinator's address as source.

The payload encodings here are simplified but structurally faithful: a
one-byte application frame type, followed by type-specific fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "XBEE_CHANNEL",
    "XBEE_PAN_ID",
    "XBEE_REMOTE_AT_ENABLED",
    "AppFrameType",
    "AtCommand",
    "RemoteAtCommand",
    "SensorReading",
    "parse_app_payload",
]


# Factory defaults relevant to the attack: an XBee honours remote AT
# commands out of the box, on channel 14 in PAN 0x1234.
XBEE_REMOTE_AT_ENABLED = True
XBEE_CHANNEL = 14
XBEE_PAN_ID = 0x1234


class AppFrameType(IntEnum):
    SENSOR_READING = 0x10
    REMOTE_AT_COMMAND = 0x17  # matches Digi's API frame type for remote AT
    REMOTE_AT_RESPONSE = 0x97


class AtCommand:
    """Two-letter AT command names used by the scenario."""

    CHANNEL = b"CH"
    PAN_ID = b"ID"
    WRITE = b"WR"


@dataclass
class RemoteAtCommand:
    """A remote AT command: change a named setting on another node."""

    command: bytes
    parameter: bytes = b""
    frame_id: int = 1
    apply_changes: bool = True

    def __post_init__(self) -> None:
        if len(self.command) != 2:
            raise ValueError("AT command names are two ASCII letters")

    def to_payload(self) -> bytes:
        options = 0x02 if self.apply_changes else 0x00
        return (
            bytes([AppFrameType.REMOTE_AT_COMMAND, self.frame_id & 0xFF, options])
            + self.command
            + self.parameter
        )

    @staticmethod
    def from_payload(payload: bytes) -> "RemoteAtCommand":
        if len(payload) < 5 or payload[0] != AppFrameType.REMOTE_AT_COMMAND:
            raise ValueError("not a remote AT command payload")
        return RemoteAtCommand(
            command=bytes(payload[3:5]),
            parameter=bytes(payload[5:]),
            frame_id=payload[1],
            apply_changes=bool(payload[2] & 0x02),
        )


@dataclass
class SensorReading:
    """The sensor's periodic report: a counter and a value (temperature)."""

    counter: int
    value: int

    def to_payload(self) -> bytes:
        return (
            bytes([AppFrameType.SENSOR_READING])
            + (self.counter & 0xFFFF).to_bytes(2, "little")
            + (self.value & 0xFFFF).to_bytes(2, "little")
        )

    @staticmethod
    def from_payload(payload: bytes) -> "SensorReading":
        if len(payload) != 5 or payload[0] != AppFrameType.SENSOR_READING:
            raise ValueError("not a sensor reading payload")
        return SensorReading(
            counter=int.from_bytes(payload[1:3], "little"),
            value=int.from_bytes(payload[3:5], "little"),
        )


def parse_app_payload(payload: bytes):
    """Decode an application payload to its dataclass, or ``None``."""
    if not payload:
        return None
    kind = payload[0]
    try:
        if kind == AppFrameType.SENSOR_READING:
            return SensorReading.from_payload(payload)
        if kind == AppFrameType.REMOTE_AT_COMMAND:
            return RemoteAtCommand.from_payload(payload)
    except ValueError:
        return None
    return None
