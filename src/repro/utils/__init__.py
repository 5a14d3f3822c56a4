"""Low-level helpers shared by every other subpackage.

The radio stacks in this repository shuttle data between three domains —
bytes (protocol payloads), bit arrays (what modulators consume) and chip
arrays (after DSSS spreading).  :mod:`repro.utils.bits` provides the
conversions; :mod:`repro.utils.crc` provides the generic CRC engine that
the BLE and 802.15.4 layers specialise.
"""

from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
    parse_bitstring,
)
from repro.utils.crc import CrcEngine

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "int_to_bits",
    "parse_bitstring",
    "CrcEngine",
]
