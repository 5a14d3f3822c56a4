"""CCM / CCM* authenticated encryption (RFC 3610, IEEE 802.15.4 Annex B).

CCM combines CTR-mode encryption with a CBC-MAC over the (length-framed)
associated data and message.  CCM* — the 802.15.4 variant — additionally
allows a zero-length MIC (encryption-only) and MIC-only operation; both are
expressed here through the ``mic_length`` / ``encrypt`` parameters.

Parameters follow RFC 3610 terminology: ``M`` = MIC length, ``L`` = length
field size.  802.15.4 uses L = 2 and a 13-byte nonce.
"""

from __future__ import annotations

from repro.crypto.aes import Aes128

__all__ = ["CcmError", "ccm_encrypt", "ccm_decrypt"]

_BLOCK = 16
_LENGTH_SIZE = 2  # L = 2 (802.15.4 and the RFC 3610 test vectors)
NONCE_SIZE = 15 - _LENGTH_SIZE


class CcmError(ValueError):
    """Authentication failure or malformed parameters."""


def _check_params(nonce: bytes, mic_length: int) -> None:
    if len(nonce) != NONCE_SIZE:
        raise CcmError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if mic_length not in (0, 4, 6, 8, 10, 12, 14, 16):
        raise CcmError(f"invalid MIC length {mic_length}")


def _pad(data: bytes) -> bytes:
    remainder = len(data) % _BLOCK
    return data + bytes(_BLOCK - remainder) if remainder else data


def _cbc_mac(
    cipher: Aes128, nonce: bytes, message: bytes, aad: bytes, mic_length: int
) -> bytes:
    flags = 0x40 if aad else 0x00
    flags |= ((max(mic_length, 2) - 2) // 2) << 3
    flags |= _LENGTH_SIZE - 1
    b0 = bytes([flags]) + nonce + len(message).to_bytes(_LENGTH_SIZE, "big")
    blocks = b0
    if aad:
        if len(aad) >= 0xFF00:
            raise CcmError("associated data too long for this implementation")
        blocks += _pad(len(aad).to_bytes(2, "big") + aad)
    blocks += _pad(message)
    mac = bytes(_BLOCK)
    for offset in range(0, len(blocks), _BLOCK):
        chunk = blocks[offset : offset + _BLOCK]
        mac = cipher.encrypt_block(bytes(a ^ b for a, b in zip(mac, chunk)))
    return mac[:mic_length]


def _ctr_blocks(cipher: Aes128, nonce: bytes, count: int) -> bytes:
    flags = _LENGTH_SIZE - 1
    stream = bytearray()
    for counter in range(count):
        a_i = bytes([flags]) + nonce + counter.to_bytes(_LENGTH_SIZE, "big")
        stream += cipher.encrypt_block(a_i)
    return bytes(stream)


def _ctr_crypt(cipher: Aes128, nonce: bytes, data: bytes) -> bytes:
    if not data:
        return b""
    blocks = (len(data) + _BLOCK - 1) // _BLOCK
    # Counter 0 encrypts the MIC; payload uses counters 1..n.
    stream = _ctr_blocks(cipher, nonce, blocks + 1)[_BLOCK:]
    return bytes(a ^ b for a, b in zip(data, stream))


def ccm_encrypt(
    key: bytes,
    nonce: bytes,
    plaintext: bytes,
    aad: bytes = b"",
    mic_length: int = 8,
    encrypt: bool = True,
) -> bytes:
    """Protect *plaintext*; returns ciphertext (or plaintext) || MIC.

    ``encrypt=False`` gives the CCM* MIC-only levels: the payload rides in
    clear but is still authenticated (together with *aad*).
    """
    _check_params(nonce, mic_length)
    cipher = Aes128(key)
    if encrypt:
        mic = _cbc_mac(cipher, nonce, plaintext, aad, mic_length)
        body = _ctr_crypt(cipher, nonce, plaintext)
    else:
        mic = _cbc_mac(cipher, nonce, b"", aad + plaintext, mic_length)
        body = plaintext
    if mic:
        stream0 = _ctr_blocks(cipher, nonce, 1)
        mic = bytes(a ^ b for a, b in zip(mic, stream0))
    return body + mic


def ccm_decrypt(
    key: bytes,
    nonce: bytes,
    protected: bytes,
    aad: bytes = b"",
    mic_length: int = 8,
    encrypt: bool = True,
) -> bytes:
    """Verify and unprotect; raises :class:`CcmError` on a bad MIC."""
    _check_params(nonce, mic_length)
    if len(protected) < mic_length:
        raise CcmError("message shorter than its MIC")
    cipher = Aes128(key)
    body = protected[: len(protected) - mic_length]
    received_mic = protected[len(protected) - mic_length :]
    if encrypt:
        plaintext = _ctr_crypt(cipher, nonce, body)
        expected = _cbc_mac(cipher, nonce, plaintext, aad, mic_length)
    else:
        plaintext = body
        expected = _cbc_mac(cipher, nonce, b"", aad + plaintext, mic_length)
    if mic_length:
        stream0 = _ctr_blocks(cipher, nonce, 1)
        expected = bytes(a ^ b for a, b in zip(expected, stream0))
        if expected != received_mic:
            raise CcmError("MIC verification failed")
    return plaintext
