"""BLE link-layer packet formats and on-air bit assembly.

Covers the packet machinery WazaBee needs:

* the generic on-air format — preamble / Access Address / PDU / CRC-24,
  with channel whitening (§III-B of the paper);
* legacy advertising PDUs (ADV_NONCONN_IND) for ordinary BLE traffic;
* the *extended advertising* chain (ADV_EXT_IND → AUX_ADV_IND) with the
  Common Extended Advertising Payload, which Scenario A abuses: the
  AUX_ADV_IND is sent on a CSA#2-chosen data channel at LE 2M and carries
  up to 255 bytes of attacker-controlled advertising data.

Byte order: multi-byte fields are little-endian; every byte is transmitted
LSB-first (handled by :mod:`repro.utils.bits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.ble.crc import ADVERTISING_CRC_INIT, ble_crc24_bits, ble_crc24
from repro.ble.whitening import whiten
from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
)

__all__ = [
    "ADVERTISING_ACCESS_ADDRESS",
    "PhyMode",
    "PduType",
    "AdStructure",
    "manufacturer_data",
    "AdvNonconnInd",
    "AuxPtr",
    "Adi",
    "ExtendedAdvertisingPdu",
    "assemble_on_air_bits",
    "access_address_bits",
    "preamble_bits",
    "OnAirPacket",
]

ADVERTISING_ACCESS_ADDRESS = 0x8E89BED6
MAX_EXTENDED_ADV_DATA = 255


class PhyMode(Enum):
    """BLE physical layers relevant to the attack (LE Coded is out of scope)."""

    LE_1M = "1M"
    LE_2M = "2M"

    @property
    def symbol_rate(self) -> float:
        return 1e6 if self is PhyMode.LE_1M else 2e6

    @property
    def preamble_bytes(self) -> int:
        return 1 if self is PhyMode.LE_1M else 2


class PduType(Enum):
    """Advertising-channel PDU types (Core spec vol 6, part B, §2.3)."""

    ADV_IND = 0x0
    ADV_DIRECT_IND = 0x1
    ADV_NONCONN_IND = 0x2
    SCAN_REQ = 0x3
    SCAN_RSP = 0x4
    CONNECT_IND = 0x5
    ADV_SCAN_IND = 0x6
    ADV_EXT_IND = 0x7  # also AUX_ADV_IND / AUX_CHAIN_IND / ...


def access_address_bits(access_address: int) -> np.ndarray:
    """Access Address as 32 on-air bits (LSB of the value first)."""
    return int_to_bits(access_address, 32)


def preamble_bits(access_address: int, phy: PhyMode) -> np.ndarray:
    """Alternating preamble whose first bit equals the AA's first bit."""
    first = access_address & 1
    length = 8 * phy.preamble_bytes
    bits = np.empty(length, dtype=np.uint8)
    bits[0::2] = first
    bits[1::2] = first ^ 1
    return bits


# ---------------------------------------------------------------------------
# Advertising data (AD) structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdStructure:
    """One advertising-data element: length / AD type / payload."""

    ad_type: int
    payload: bytes

    def to_bytes(self) -> bytes:
        if not 0 <= self.ad_type <= 0xFF:
            raise ValueError("AD type must fit one byte")
        if len(self.payload) > 254:
            raise ValueError("AD payload too long")
        return bytes([len(self.payload) + 1, self.ad_type]) + self.payload

    @staticmethod
    def parse_all(data: bytes) -> List["AdStructure"]:
        out: List[AdStructure] = []
        offset = 0
        while offset < len(data):
            length = data[offset]
            if length == 0:
                break
            chunk = data[offset + 1 : offset + 1 + length]
            if len(chunk) < length:
                raise ValueError("truncated AD structure")
            out.append(AdStructure(ad_type=chunk[0], payload=bytes(chunk[1:])))
            offset += 1 + length
        return out


MANUFACTURER_SPECIFIC_DATA = 0xFF


def manufacturer_data(company_id: int, data: bytes) -> AdStructure:
    """Manufacturer-specific AD structure — Scenario A's carrier field."""
    if not 0 <= company_id <= 0xFFFF:
        raise ValueError("company id must be 16-bit")
    return AdStructure(
        MANUFACTURER_SPECIFIC_DATA,
        company_id.to_bytes(2, "little") + bytes(data),
    )


# ---------------------------------------------------------------------------
# Legacy advertising
# ---------------------------------------------------------------------------


@dataclass
class AdvNonconnInd:
    """Legacy non-connectable undirected advertisement."""

    advertiser_address: bytes
    adv_data: bytes = b""

    def to_pdu(self) -> bytes:
        if len(self.advertiser_address) != 6:
            raise ValueError("advertiser address must be 6 bytes")
        if len(self.adv_data) > 31:
            raise ValueError("legacy advertising data limited to 31 bytes")
        payload = self.advertiser_address + bytes(self.adv_data)
        header = bytes([PduType.ADV_NONCONN_IND.value, len(payload)])
        return header + payload


# ---------------------------------------------------------------------------
# Extended advertising
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxPtr:
    """AuxPtr extended-header field: where the AUX_ADV_IND will appear."""

    channel: int
    phy: PhyMode
    offset_usec: int = 300
    clock_accuracy: int = 0

    def to_bytes(self) -> bytes:
        if not 0 <= self.channel <= 36:
            raise ValueError("AuxPtr channel must be a data channel (0-36)")
        offset_units = 1 if self.offset_usec >= 245_700 else 0
        unit = 300 if offset_units == 0 else 30_000
        aux_offset = self.offset_usec // unit
        if aux_offset >= 1 << 13:
            raise ValueError("aux offset out of range")
        phy_code = 0 if self.phy is PhyMode.LE_1M else 1
        word = (
            self.channel
            | (self.clock_accuracy & 1) << 6
            | offset_units << 7
            | aux_offset << 8
            | phy_code << 21
        )
        return word.to_bytes(3, "little")

    @staticmethod
    def from_bytes(raw: bytes) -> "AuxPtr":
        if len(raw) != 3:
            raise ValueError("AuxPtr is 3 bytes")
        word = int.from_bytes(raw, "little")
        channel = word & 0x3F
        clock_accuracy = (word >> 6) & 1
        offset_units = (word >> 7) & 1
        aux_offset = (word >> 8) & 0x1FFF
        phy_code = (word >> 21) & 0x7
        unit = 300 if offset_units == 0 else 30_000
        phy = PhyMode.LE_1M if phy_code == 0 else PhyMode.LE_2M
        return AuxPtr(
            channel=channel,
            phy=phy,
            offset_usec=aux_offset * unit,
            clock_accuracy=clock_accuracy,
        )


@dataclass(frozen=True)
class Adi:
    """Advertising Data Info: set id + data id, links ADV_EXT_IND to its AUX."""

    did: int = 0
    sid: int = 0

    def to_bytes(self) -> bytes:
        if not 0 <= self.did < 1 << 12 or not 0 <= self.sid < 1 << 4:
            raise ValueError("ADI fields out of range")
        return ((self.sid << 12) | self.did).to_bytes(2, "little")

    @staticmethod
    def from_bytes(raw: bytes) -> "Adi":
        word = int.from_bytes(raw, "little")
        return Adi(did=word & 0xFFF, sid=word >> 12)


_FLAG_ADVA = 1 << 0
_FLAG_TARGETA = 1 << 1
_FLAG_CTE = 1 << 2
_FLAG_ADI = 1 << 3
_FLAG_AUXPTR = 1 << 4
_FLAG_SYNCINFO = 1 << 5
_FLAG_TXPOWER = 1 << 6


@dataclass
class ExtendedAdvertisingPdu:
    """ADV_EXT_IND / AUX_ADV_IND with the Common Extended Advertising Payload.

    Which one it represents depends on the fields present: the ADV_EXT_IND on
    primary channels carries ADI + AuxPtr and no data; the AUX_ADV_IND on the
    secondary channel carries AdvA + ADI (+ TxPower) and the advertising
    data.  The attacker-relevant property is the *fixed, predictable* byte
    layout in front of the advertising data (the paper's "padding").
    """

    advertiser_address: Optional[bytes] = None
    adi: Optional[Adi] = None
    aux_ptr: Optional[AuxPtr] = None
    adv_mode: int = 0  # 00 = non-connectable, non-scannable
    adv_data: bytes = b""

    def extended_header(self) -> bytes:
        flags = 0
        body = b""
        if self.advertiser_address is not None:
            if len(self.advertiser_address) != 6:
                raise ValueError("advertiser address must be 6 bytes")
            flags |= _FLAG_ADVA
            body += self.advertiser_address
        if self.adi is not None:
            flags |= _FLAG_ADI
            body += self.adi.to_bytes()
        if self.aux_ptr is not None:
            flags |= _FLAG_AUXPTR
            body += self.aux_ptr.to_bytes()
        if flags:
            return bytes([flags]) + body
        return b""

    def to_pdu(self) -> bytes:
        if len(self.adv_data) > MAX_EXTENDED_ADV_DATA:
            raise ValueError("extended advertising data limited to 255 bytes")
        ext = self.extended_header()
        if len(ext) > 63:
            raise ValueError("extended header too long")
        first = (len(ext) & 0x3F) | ((self.adv_mode & 0x3) << 6)
        payload = bytes([first]) + ext + bytes(self.adv_data)
        if len(payload) > 255:
            raise ValueError("extended advertising PDU payload exceeds 255 bytes")
        header = bytes([PduType.ADV_EXT_IND.value, len(payload)])
        return header + payload

    def data_offset_in_pdu(self) -> int:
        """Offset of ``adv_data`` from the start of the PDU, in bytes.

        This is the quantity Scenario A must know to pre-de-whiten the
        payload correctly (the paper's 16-byte padding figure counts this
        plus the AD-structure framing inside ``adv_data``).
        """
        return 2 + 1 + len(self.extended_header())

    @staticmethod
    def from_pdu(pdu: bytes) -> "ExtendedAdvertisingPdu":
        if len(pdu) < 3:
            raise ValueError("PDU too short")
        pdu_type = pdu[0] & 0x0F
        if pdu_type != PduType.ADV_EXT_IND.value:
            raise ValueError(f"not an extended advertising PDU (type {pdu_type})")
        length = pdu[1]
        payload = pdu[2 : 2 + length]
        if len(payload) < 1 or len(payload) != length:
            raise ValueError("truncated extended advertising PDU")
        ext_len = payload[0] & 0x3F
        adv_mode = payload[0] >> 6
        ext = payload[1 : 1 + ext_len]
        if len(ext) != ext_len:
            raise ValueError("truncated extended header")
        result = ExtendedAdvertisingPdu(adv_mode=adv_mode)
        if ext_len:
            flags = ext[0]
            cursor = 1

            def take(n: int) -> bytes:
                nonlocal cursor
                chunk = ext[cursor : cursor + n]
                if len(chunk) != n:
                    raise ValueError("truncated extended header field")
                cursor += n
                return chunk

            if flags & _FLAG_ADVA:
                result.advertiser_address = take(6)
            if flags & _FLAG_TARGETA:
                take(6)
            if flags & _FLAG_CTE:
                take(1)
            if flags & _FLAG_ADI:
                result.adi = Adi.from_bytes(take(2))
            if flags & _FLAG_AUXPTR:
                result.aux_ptr = AuxPtr.from_bytes(take(3))
            if flags & _FLAG_SYNCINFO:
                take(18)
            if flags & _FLAG_TXPOWER:
                take(1)
        result.adv_data = bytes(payload[1 + ext_len :])
        return result


# ---------------------------------------------------------------------------
# On-air assembly
# ---------------------------------------------------------------------------


@dataclass
class OnAirPacket:
    """A fully assembled link-layer packet ready for the modulator."""

    bits: np.ndarray
    access_address: int
    pdu: bytes
    channel: int
    phy: PhyMode


def assemble_on_air_bits(
    pdu: bytes,
    channel: int,
    phy: PhyMode = PhyMode.LE_1M,
    access_address: int = ADVERTISING_ACCESS_ADDRESS,
    crc_init: int = ADVERTISING_CRC_INIT,
) -> OnAirPacket:
    """Build the complete on-air bit sequence for a PDU: preamble, Access
    Address, then the PDU and its CRC-24, whitened for *channel*."""
    body = np.concatenate([bytes_to_bits(pdu), ble_crc24_bits(pdu, init=crc_init)])
    parts = [
        preamble_bits(access_address, phy),
        access_address_bits(access_address),
        whiten(body, channel),
    ]
    return OnAirPacket(
        bits=np.concatenate(parts),
        access_address=access_address,
        pdu=bytes(pdu),
        channel=channel,
        phy=phy,
    )


def check_crc(pdu: bytes, crc_value: int, crc_init: int = ADVERTISING_CRC_INIT) -> bool:
    """Validate a received PDU against its CRC register value."""
    return ble_crc24(pdu, init=crc_init) == crc_value


def parse_pdu_bits(
    body_bits: np.ndarray,
    channel: int,
    whitening: bool = True,
    crc_init: int = ADVERTISING_CRC_INIT,
) -> Tuple[bytes, bool]:
    """Decode PDU+CRC bits captured after the Access Address.

    Returns ``(pdu, crc_ok)``.  The PDU length is read from the link-layer
    header (second byte), so *body_bits* must contain at least the header.
    """
    bits = whiten(body_bits, channel) if whitening else np.asarray(body_bits)
    if bits.size < 16:
        raise ValueError("capture shorter than a PDU header")
    header = bits_to_bytes(bits[:16])
    pdu_len = 2 + header[1]
    total = 8 * pdu_len + 24
    if bits.size < total:
        raise ValueError(
            f"capture too short: need {total} bits for PDU+CRC, have {bits.size}"
        )
    pdu = bits_to_bytes(bits[: 8 * pdu_len])
    crc_value = bits_to_int(bits[8 * pdu_len : total], order="msb")
    return pdu, check_crc(pdu, crc_value, crc_init=crc_init)
