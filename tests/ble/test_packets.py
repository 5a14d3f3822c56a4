"""Tests for BLE packet formats and on-air assembly."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ble.packets import (
    ADVERTISING_ACCESS_ADDRESS,
    AdStructure,
    Adi,
    AdvNonconnInd,
    AuxPtr,
    ExtendedAdvertisingPdu,
    PduType,
    PhyMode,
    access_address_bits,
    assemble_on_air_bits,
    manufacturer_data,
    parse_pdu_bits,
    preamble_bits,
)


def pdu_bits(packet):
    """The on-air bits after the preamble and the 32-bit Access Address."""
    return packet.bits[8 * packet.phy.preamble_bytes + 32 :]


class TestPhyMode:
    def test_rates(self):
        assert PhyMode.LE_1M.symbol_rate == 1e6
        assert PhyMode.LE_2M.symbol_rate == 2e6

    def test_preamble_lengths(self):
        assert PhyMode.LE_1M.preamble_bytes == 1
        assert PhyMode.LE_2M.preamble_bytes == 2


class TestPreambleAndAa:
    def test_preamble_alternates(self):
        bits = preamble_bits(ADVERTISING_ACCESS_ADDRESS, PhyMode.LE_1M)
        assert bits.size == 8
        assert np.array_equal(bits[::2], bits[::2])
        assert set(np.unique(bits[::2])) != set(np.unique(bits[1::2]))

    def test_preamble_first_bit_matches_aa(self):
        for aa in (0x8E89BED6, 0x12345679):
            assert preamble_bits(aa, PhyMode.LE_1M)[0] == aa & 1

    def test_le2m_preamble_is_16_bits(self):
        assert preamble_bits(0, PhyMode.LE_2M).size == 16

    def test_access_address_lsb_first(self):
        bits = access_address_bits(0x00000001)
        assert bits[0] == 1
        assert bits[1:].sum() == 0


class TestAdStructures:
    def test_roundtrip(self):
        ad = AdStructure(ad_type=0x09, payload=b"name")
        parsed = AdStructure.parse_all(ad.to_bytes())
        assert parsed == [ad]

    def test_multiple(self):
        data = AdStructure(1, b"\x06").to_bytes() + AdStructure(9, b"x").to_bytes()
        parsed = AdStructure.parse_all(data)
        assert [a.ad_type for a in parsed] == [1, 9]

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            AdStructure.parse_all(b"\x05\x09ab")

    def test_zero_length_terminates(self):
        assert AdStructure.parse_all(b"\x00\xff\xff") == []

    def test_manufacturer_data(self):
        ad = manufacturer_data(0x0059, b"zz")
        assert ad.ad_type == 0xFF
        assert ad.payload == b"\x59\x00zz"

    def test_manufacturer_validation(self):
        with pytest.raises(ValueError):
            manufacturer_data(1 << 16, b"")


class TestLegacyAdv:
    def test_pdu_layout(self):
        pdu = AdvNonconnInd(b"\x01\x02\x03\x04\x05\x06", b"hi").to_pdu()
        assert pdu[0] == PduType.ADV_NONCONN_IND.value
        assert pdu[1] == 8
        assert pdu[2:8] == b"\x01\x02\x03\x04\x05\x06"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdvNonconnInd(b"\x00" * 5).to_pdu()
        with pytest.raises(ValueError):
            AdvNonconnInd(b"\x00" * 6, b"x" * 32).to_pdu()


class TestAuxPtrAdi:
    def test_aux_ptr_roundtrip(self):
        ptr = AuxPtr(channel=8, phy=PhyMode.LE_2M, offset_usec=1200)
        back = AuxPtr.from_bytes(ptr.to_bytes())
        assert back.channel == 8
        assert back.phy is PhyMode.LE_2M
        assert back.offset_usec == 1200

    def test_aux_ptr_offset_quantised_to_units(self):
        ptr = AuxPtr(channel=1, phy=PhyMode.LE_1M, offset_usec=450)
        assert AuxPtr.from_bytes(ptr.to_bytes()).offset_usec == 300

    def test_aux_ptr_channel_validation(self):
        with pytest.raises(ValueError):
            AuxPtr(channel=37, phy=PhyMode.LE_2M).to_bytes()

    def test_adi_roundtrip(self):
        adi = Adi(did=0xABC, sid=0x5)
        assert Adi.from_bytes(adi.to_bytes()) == adi

    def test_adi_validation(self):
        with pytest.raises(ValueError):
            Adi(did=1 << 12).to_bytes()


class TestExtendedAdvertising:
    def test_aux_adv_ind_roundtrip(self):
        pdu = ExtendedAdvertisingPdu(
            advertiser_address=b"\xaa\xbb\xcc\xdd\xee\xff",
            adi=Adi(did=1, sid=2),
            adv_data=b"\x03\xff\x59\x00",
        )
        parsed = ExtendedAdvertisingPdu.from_pdu(pdu.to_pdu())
        assert parsed.advertiser_address == b"\xaa\xbb\xcc\xdd\xee\xff"
        assert parsed.adi == Adi(did=1, sid=2)
        assert parsed.adv_data == b"\x03\xff\x59\x00"

    def test_adv_ext_ind_roundtrip(self):
        pdu = ExtendedAdvertisingPdu(
            adi=Adi(did=9, sid=1),
            aux_ptr=AuxPtr(channel=8, phy=PhyMode.LE_2M, offset_usec=1200),
        )
        parsed = ExtendedAdvertisingPdu.from_pdu(pdu.to_pdu())
        assert parsed.aux_ptr.channel == 8
        assert parsed.advertiser_address is None

    def test_paper_padding_is_16_bytes(self):
        """2 (header) + 1 + 9 (flags/AdvA/ADI) + 4 (AD framing + company id)
        = 16 — the paper's padding figure."""
        pdu = ExtendedAdvertisingPdu(
            advertiser_address=bytes(6), adi=Adi(), adv_data=b""
        )
        assert pdu.data_offset_in_pdu() + 4 == 16

    def test_tx_power_extends_header(self):
        pdu = ExtendedAdvertisingPdu(
            advertiser_address=bytes(6), adi=Adi(), adv_data=b"xy"
        ).to_pdu()
        # Set the TxPower flag and append its byte to the extended header.
        ext_len = pdu[2] & 0x3F
        with_power = (
            bytes([pdu[0], pdu[1] + 1, pdu[2] + 1, pdu[3] | 1 << 6])
            + pdu[4 : 3 + ext_len]
            + bytes([0xF8])
            + pdu[3 + ext_len :]
        )
        parsed = ExtendedAdvertisingPdu.from_pdu(with_power)
        assert parsed.advertiser_address == bytes(6)
        assert parsed.adv_data == b"xy"

    def test_oversized_data_rejected(self):
        with pytest.raises(ValueError):
            ExtendedAdvertisingPdu(adv_data=b"x" * 256).to_pdu()

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            ExtendedAdvertisingPdu.from_pdu(b"\x02\x01\x00")


class TestOnAirAssembly:
    def test_structure(self):
        packet = assemble_on_air_bits(b"\x02\x01\x00", channel=37)
        # preamble 8 + AA 32 + (3 PDU + 3 CRC) * 8
        assert packet.bits.size == 8 + 32 + 48
        aa = access_address_bits(ADVERTISING_ACCESS_ADDRESS)
        assert np.array_equal(packet.bits[8:40], aa)

    def test_le2m_longer_preamble(self):
        packet = assemble_on_air_bits(b"\x02\x01\x00", channel=8, phy=PhyMode.LE_2M)
        assert packet.bits.size == 16 + 32 + 48
        aa = access_address_bits(ADVERTISING_ACCESS_ADDRESS)
        assert np.array_equal(packet.bits[16:48], aa)

    def test_parse_roundtrip(self):
        pdu = AdvNonconnInd(bytes(6), b"data!").to_pdu()
        packet = assemble_on_air_bits(pdu, channel=12)
        body = pdu_bits(packet)
        parsed, crc_ok = parse_pdu_bits(body, channel=12)
        assert parsed == pdu
        assert crc_ok

    def test_parse_detects_corruption(self):
        pdu = AdvNonconnInd(bytes(6), b"data!").to_pdu()
        packet = assemble_on_air_bits(pdu, channel=12)
        body = pdu_bits(packet).copy()
        body[30] ^= 1
        _, crc_ok = parse_pdu_bits(body, channel=12)
        assert not crc_ok

    def test_wrong_channel_dewhitening_garbles(self):
        pdu = AdvNonconnInd(bytes(6), b"data!").to_pdu()
        packet = assemble_on_air_bits(pdu, channel=12)
        body = pdu_bits(packet)
        try:
            parsed, crc_ok = parse_pdu_bits(body, channel=13)
            assert parsed != pdu or not crc_ok
        except ValueError:
            pass  # garbled length field — equally a failure to parse

    @given(st.binary(min_size=2, max_size=40))
    def test_assembly_roundtrip_property(self, payload):
        pdu = bytes([0x02, len(payload)]) + payload
        packet = assemble_on_air_bits(pdu, channel=20)
        parsed, crc_ok = parse_pdu_bits(pdu_bits(packet), channel=20)
        assert parsed == pdu and crc_ok
