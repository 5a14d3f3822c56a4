"""802.15.4 link-layer security (simplified CCM* data security).

Implements the counter-measure §VII recommends "should be systematically
used": data frames carry an auxiliary security header (security control +
frame counter) and their payload is protected with AES-128/CCM*, keyed by a
network key.  The MAC header is included in the associated data so spoofed
addressing fails authentication.

Simplifications vs IEEE 802.15.4-2015 §9 (documented per DESIGN.md):

* the nonce's 8-byte source identifier is built from (PAN id, short
  address) instead of the EUI-64 (the simulation has no extended
  addresses on the data path);
* a single network key (KeyIdMode 0), no key lookup tables;
* replay protection is a strict per-source frame-counter monotonicity
  check, which is also what real stacks do.

None of the simplifications weakens what the counter-measure bench needs to
show: an attacker without the key can neither forge valid frames nor read
encrypted payloads, but can still jam and replay-drop (the residual risks
the paper lists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Tuple

from repro.crypto.ccm import CcmError, ccm_decrypt, ccm_encrypt
from repro.dot15d4.frames import Address, MacFrame

__all__ = [
    "SecurityLevel",
    "SecurityError",
    "SecurityContext",
    "AUX_HEADER_SIZE",
    "LEVEL",
]

#: Auxiliary security header: security control (1) + frame counter (4).
AUX_HEADER_SIZE = 5


class SecurityError(ValueError):
    """Authentication/replay failure on a secured frame."""


class SecurityLevel(IntEnum):
    """IEEE 802.15.4 security levels (MIC size / encryption)."""

    NONE = 0
    MIC_32 = 1
    MIC_64 = 2
    MIC_128 = 3
    ENC = 4
    ENC_MIC_32 = 5
    ENC_MIC_64 = 6
    ENC_MIC_128 = 7

    @property
    def mic_length(self) -> int:
        return {0: 0, 1: 4, 2: 8, 3: 16, 4: 0, 5: 4, 6: 8, 7: 16}[int(self)]

    @property
    def encrypted(self) -> bool:
        return int(self) >= 4


#: The level every secured frame uses: encryption with a 64-bit MIC.
LEVEL = SecurityLevel.ENC_MIC_64


def _source_identifier(address: Address) -> bytes:
    """8-byte nonce source field derived from PAN id + short address."""
    return (
        address.pan_id.to_bytes(2, "little")
        + address.address_bytes.ljust(2, b"\x00")[:2]
        + bytes(4)
    )


def build_nonce(source: Address, frame_counter: int, level: SecurityLevel) -> bytes:
    """13-byte CCM* nonce: source id (8) || frame counter (4) || level (1)."""
    if not 0 <= frame_counter <= 0xFFFFFFFF:
        raise SecurityError("frame counter exhausted")
    return (
        _source_identifier(source)
        + frame_counter.to_bytes(4, "big")
        + bytes([int(level)])
    )


@dataclass
class SecurityContext:
    """Per-node security material and replay state."""

    key: bytes
    frame_counter: int = field(default=0, init=False)
    replay_state: Dict[Tuple[int, int], int] = field(
        default_factory=dict, init=False
    )

    def __post_init__(self) -> None:
        if len(self.key) != 16:
            raise SecurityError("network key must be 16 bytes (AES-128)")

    # -- outgoing -----------------------------------------------------------
    def protect(self, frame: MacFrame) -> MacFrame:
        """Return a secured copy of *frame* (aux header + protected payload)."""
        if frame.source is None:
            raise SecurityError("secured frames need a source address")
        counter = self.frame_counter
        self.frame_counter += 1
        nonce = build_nonce(frame.source, counter, LEVEL)
        aux = bytes([int(LEVEL)]) + counter.to_bytes(4, "big")
        secured = MacFrame(
            frame_type=frame.frame_type,
            sequence_number=frame.sequence_number,
            destination=frame.destination,
            source=frame.source,
            ack_request=frame.ack_request,
            frame_pending=frame.frame_pending,
            pan_id_compression=frame.pan_id_compression,
            frame_version=frame.frame_version,
            security_enabled=True,
        )
        header = secured.encode()  # MHR (empty payload) == associated data
        protected = ccm_encrypt(
            self.key,
            nonce,
            frame.payload,
            aad=header + aux,
            mic_length=LEVEL.mic_length,
            encrypt=LEVEL.encrypted,
        )
        secured.payload = aux + protected
        return secured

    # -- incoming --------------------------------------------------------------
    def unprotect(self, frame: MacFrame) -> bytes:
        """Verify a secured frame; returns the clear payload.

        Raises :class:`SecurityError` on MIC failure, replay, level
        mismatch or malformed aux header.
        """
        if not frame.security_enabled:
            raise SecurityError("frame is not secured")
        if frame.source is None:
            raise SecurityError("secured frames need a source address")
        if len(frame.payload) < AUX_HEADER_SIZE:
            raise SecurityError("truncated auxiliary security header")
        level_value = frame.payload[0] & 0x07
        try:
            level = SecurityLevel(level_value)
        except ValueError as exc:  # pragma: no cover - 3-bit value always valid
            raise SecurityError("bad security level") from exc
        if level is not LEVEL:
            raise SecurityError(
                f"security level mismatch: frame {level.name}, "
                f"context {LEVEL.name}"
            )
        counter = int.from_bytes(frame.payload[1:5], "big")
        key_id = (frame.source.pan_id, frame.source.address)
        last = self.replay_state.get(key_id, -1)
        if counter <= last:
            raise SecurityError(
                f"replayed frame counter {counter} (last seen {last})"
            )
        # Rebuild the associated data exactly as the sender did.
        header_frame = MacFrame(
            frame_type=frame.frame_type,
            sequence_number=frame.sequence_number,
            destination=frame.destination,
            source=frame.source,
            ack_request=frame.ack_request,
            frame_pending=frame.frame_pending,
            pan_id_compression=frame.pan_id_compression,
            frame_version=frame.frame_version,
            security_enabled=True,
        )
        aux = frame.payload[:AUX_HEADER_SIZE]
        nonce = build_nonce(frame.source, counter, level)
        try:
            payload = ccm_decrypt(
                self.key,
                nonce,
                frame.payload[AUX_HEADER_SIZE:],
                aad=header_frame.encode() + aux,
                mic_length=level.mic_length,
                encrypt=level.encrypted,
            )
        except CcmError as exc:
            raise SecurityError(str(exc)) from exc
        self.replay_state[key_id] = counter
        return payload
