"""802.15.4 Frame Check Sequence.

The 16-bit ITU-T CRC (``x^16 + x^12 + x^5 + 1``) with a zero seed, computed
over the MHR+payload with bits processed in transmission order and the
result appended least-significant byte first (IEEE 802.15.4-2015 §7.2.10).
This is the CRC-16/KERMIT variant; the unit tests pin the classic
``"123456789" → 0x2189`` check value.

The FCS check runs once per decoded frame, so it is computed by C: KERMIT
is the bit-reflection of the CRC-CCITT register that
:func:`binascii.crc_hqx` runs MSB-first, so reversing the bits of every
input byte and of the 16-bit result gives the same value as the generic
bit-serial :class:`~repro.utils.crc.CrcEngine` (the tests' reference).

The WazaBee RX experiments in Table III classify received frames by exactly
this check ("calculated the FCS corresponding to the received frame to
assess its integrity").
"""

from __future__ import annotations

import binascii

__all__ = ["FCS_POLY", "compute_fcs", "verify_fcs", "append_fcs"]

#: The generator polynomial, x^12 + x^5 + 1 with x^16 implicit — the one
#: :func:`binascii.crc_hqx` implements.
FCS_POLY = 0x1021

#: Bit-reversal of every byte value (b0..b7 -> b7..b0), as a translate table.
_REVERSED = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def compute_fcs(data: bytes) -> int:
    """FCS of *data* as a 16-bit integer."""
    register = binascii.crc_hqx(bytes(data).translate(_REVERSED), 0x0000)
    return (_REVERSED[register & 0xFF] << 8) | _REVERSED[register >> 8]


def append_fcs(data: bytes) -> bytes:
    """Return ``data || FCS`` (FCS little-endian, per the standard)."""
    return bytes(data) + compute_fcs(data).to_bytes(2, "little")


def verify_fcs(frame_with_fcs: bytes) -> bool:
    """Check a full MAC frame (payload + trailing 2-byte FCS)."""
    if len(frame_with_fcs) < 2:
        return False
    body, trailer = frame_with_fcs[:-2], frame_with_fcs[-2:]
    return compute_fcs(body) == int.from_bytes(trailer, "little")
