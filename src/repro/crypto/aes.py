"""AES-128 block cipher (FIPS-197), pure Python.

Only the forward cipher is implemented: every mode used in this project
(CCM = CTR + CBC-MAC) needs encryption only.  The implementation follows
the specification structure (SubBytes / ShiftRows / MixColumns /
AddRoundKey over a column-major 4×4 state); it favours auditability over
speed, which is fine at simulation scale (a few blocks per frame).

Validated against the FIPS-197 Appendix B/C vectors in
``tests/crypto/test_aes.py``.
"""

from __future__ import annotations

from typing import List

__all__ = ["Aes128"]


def _build_sbox() -> bytes:
    """Generate the S-box from the field inverse + affine map (FIPS-197 §5.1.1)."""
    # Multiplicative inverse table via exp/log over GF(2^8) with generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by generator 0x03 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        result = 0x63
        for shift in range(5):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = result
    return bytes(sbox)


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


class Aes128:
    """AES with a 128-bit key.

    >>> cipher = Aes128(bytes(range(16)))
    >>> len(cipher.encrypt_block(bytes(16)))
    16
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(bytes(key))

    # -- key schedule -------------------------------------------------------
    @staticmethod
    def _expand_key(key: bytes) -> List[bytes]:
        words: List[bytes] = [key[i : i + 4] for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                rotated = temp[1:] + temp[:1]
                temp = bytes(_SBOX[b] for b in rotated)
                temp = bytes([temp[0] ^ _RCON[i // 4 - 1]]) + temp[1:]
            words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
        return [b"".join(words[4 * r : 4 * r + 4]) for r in range(11)]

    # -- rounds ------------------------------------------------------------
    @staticmethod
    def _sub_bytes(state: bytearray) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: bytearray) -> None:
        # State is column-major: byte r + 4c.  Row r rotates left by r.
        for row in range(1, 4):
            values = [state[row + 4 * col] for col in range(4)]
            for col in range(4):
                state[row + 4 * col] = values[(col + row) % 4]

    @staticmethod
    def _mix_columns(state: bytearray) -> None:
        for col in range(4):
            a = state[4 * col : 4 * col + 4]
            doubled = [_xtime(v) for v in a]
            state[4 * col + 0] = doubled[0] ^ a[1] ^ doubled[1] ^ a[2] ^ a[3]
            state[4 * col + 1] = a[0] ^ doubled[1] ^ a[2] ^ doubled[2] ^ a[3]
            state[4 * col + 2] = a[0] ^ a[1] ^ doubled[2] ^ a[3] ^ doubled[3]
            state[4 * col + 3] = a[0] ^ doubled[0] ^ a[1] ^ a[2] ^ doubled[3]

    def _add_round_key(self, state: bytearray, round_index: int) -> None:
        key = self._round_keys[round_index]
        for i in range(16):
            state[i] ^= key[i]

    # -- public ---------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK_SIZE:
            raise ValueError("AES block must be 16 bytes")
        state = bytearray(block)
        self._add_round_key(state, 0)
        for round_index in range(1, 10):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_index)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, 10)
        return bytes(state)
