"""Bit-array helpers.

All bit streams in this project are numpy ``uint8`` arrays whose elements are
0 or 1.  Radio protocols disagree about bit order inside a byte: BLE and
IEEE 802.15.4 both transmit each byte *least-significant bit first*, so the
default order everywhere is ``"lsb"``; ``"msb"`` is available for the places
(e.g. human-readable PN-sequence tables) where the most-significant-bit-first
notation of the paper is more natural.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

BitsLike = Union[Sequence[int], np.ndarray, str]

__all__ = [
    "bytes_to_bits",
    "bits_to_bytes",
    "int_to_bits",
    "bits_to_int",
    "parse_bitstring",
    "pack_bits",
]


def _check_order(order: str) -> None:
    if order not in ("lsb", "msb"):
        raise ValueError(f"bit order must be 'lsb' or 'msb', got {order!r}")


def as_bit_array(bits: BitsLike) -> np.ndarray:
    """Coerce *bits* to a ``uint8`` ndarray of 0/1 values.

    Accepts sequences of ints, numpy arrays, or strings such as
    ``"1101 0011"`` (whitespace is ignored).
    """
    if isinstance(bits, str):
        return parse_bitstring(bits)
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"bit array must be one-dimensional, got shape {arr.shape}")
    if arr.size and arr.max(initial=0) > 1:
        raise ValueError("bit array may only contain 0 and 1")
    return arr


def parse_bitstring(text: str) -> np.ndarray:
    """Parse a human-readable bit string (``"11011001 11000011"``)."""
    cleaned = "".join(text.split())
    if not set(cleaned) <= {"0", "1"}:
        raise ValueError(f"invalid characters in bit string {text!r}")
    return np.frombuffer(cleaned.encode("ascii"), dtype=np.uint8) - ord("0")


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand *data* into a bit array, one byte → eight bits, least
    significant bit first."""
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")


def bits_to_bytes(bits: BitsLike) -> bytes:
    """Pack a bit array (least significant bit of each byte first) back
    into bytes.  Length must be a multiple of 8."""
    arr = as_bit_array(bits)
    if arr.size % 8:
        raise ValueError(f"bit count {arr.size} is not a multiple of 8")
    return np.packbits(arr, bitorder="little").tobytes()


def pack_bits(bits: BitsLike) -> bytes:
    """Like :func:`bits_to_bytes` (LSB first) but zero-pads the tail to a
    byte boundary."""
    arr = as_bit_array(bits)
    pad = (-arr.size) % 8
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
    return bits_to_bytes(arr)


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Encode *value* as *width* bits, least significant first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    return ((value >> np.arange(width)) & 1).astype(np.uint8)


def bits_to_int(bits: BitsLike, order: str = "lsb") -> int:
    """Decode a bit array into an integer."""
    _check_order(order)
    arr = as_bit_array(bits)
    if order == "lsb":
        weights = 1 << np.arange(arr.size, dtype=object)
    else:
        weights = 1 << np.arange(arr.size - 1, -1, -1, dtype=object)
    return int(sum(int(b) * int(w) for b, w in zip(arr, weights)))
