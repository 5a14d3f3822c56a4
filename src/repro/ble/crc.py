"""BLE CRC-24 (Bluetooth Core spec vol 6, part B, §3.1.1).

Polynomial ``x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1`` (0x65B with the
top term implicit).  The register is preset to ``0x555555`` on advertising
channels; PDU bits enter LSB-first per byte and the final register is
transmitted most-significant bit first.

The paper's RX primitive requires *disabling* this check on the diverted
chip, because 802.15.4 frames are never valid BLE frames; the chip models in
:mod:`repro.chips` expose that capability switch.
"""

from __future__ import annotations

import numpy as np

from repro.utils.crc import CrcEngine

__all__ = ["BLE_CRC24_POLY", "ADVERTISING_CRC_INIT", "ble_crc24", "ble_crc24_bits"]

BLE_CRC24_POLY = 0x65B
ADVERTISING_CRC_INIT = 0x555555

_ENGINE = CrcEngine(width=24, polynomial=BLE_CRC24_POLY, init=ADVERTISING_CRC_INIT)


def ble_crc24(pdu: bytes, init: int = ADVERTISING_CRC_INIT) -> int:
    """CRC-24 of a PDU as a 24-bit integer (register value)."""
    if init == ADVERTISING_CRC_INIT:
        return _ENGINE.compute(pdu)
    return CrcEngine(width=24, polynomial=BLE_CRC24_POLY, init=init).compute(pdu)


def ble_crc24_bits(pdu: bytes, init: int = ADVERTISING_CRC_INIT) -> np.ndarray:
    """CRC-24 as on-air bits (most significant bit first)."""
    engine = (
        _ENGINE
        if init == ADVERTISING_CRC_INIT
        else CrcEngine(width=24, polynomial=BLE_CRC24_POLY, init=init)
    )
    return engine.digest_bits(pdu)
