"""Tests for 802.15.4 channels and FCS."""

import pytest
from hypothesis import given, strategies as st

from repro.dot15d4.channels import (
    ZIGBEE_CHANNELS,
    channel_for_frequency,
    channel_frequency_hz,
)
from repro.dot15d4.fcs import (
    FCS_POLY,
    append_fcs,
    compute_fcs,
    verify_fcs,
)
from repro.utils.crc import CrcEngine

_FCS_ENGINE = CrcEngine(width=16, polynomial=FCS_POLY, init=0x0000)


def fcs_reference(data):
    """The FCS (CRC-16/KERMIT) from the generic engine, whose register
    comes out unreflected."""
    return int(f"{_FCS_ENGINE.compute(data):016b}"[::-1], 2)


class TestChannels:
    def test_equation_6(self):
        """fc = 2405 + 5 (k - 11) MHz."""
        assert channel_frequency_hz(11) == 2405e6
        assert channel_frequency_hz(14) == 2420e6
        assert channel_frequency_hz(26) == 2480e6

    def test_sixteen_channels(self):
        assert ZIGBEE_CHANNELS == tuple(range(11, 27))

    def test_five_mhz_spacing(self):
        for k in range(11, 26):
            assert (
                channel_frequency_hz(k + 1) - channel_frequency_hz(k) == 5e6
            )

    def test_invalid(self):
        with pytest.raises(ValueError):
            channel_frequency_hz(10)
        with pytest.raises(ValueError):
            channel_frequency_hz(27)

    def test_inverse(self):
        for k in ZIGBEE_CHANNELS:
            assert channel_for_frequency(channel_frequency_hz(k)) == k
        assert channel_for_frequency(2402e6) is None


class TestFcs:
    def test_kermit_check_value(self):
        assert compute_fcs(b"123456789") == 0x2189

    def test_append_and_verify(self):
        framed = append_fcs(b"payload")
        assert len(framed) == 9
        assert verify_fcs(framed)

    def test_little_endian_trailer(self):
        framed = append_fcs(b"x")
        fcs = compute_fcs(b"x")
        assert framed[-2] == fcs & 0xFF
        assert framed[-1] == fcs >> 8

    def test_verify_rejects_corruption(self):
        framed = bytearray(append_fcs(b"payload"))
        framed[0] ^= 0xFF
        assert not verify_fcs(bytes(framed))

    def test_verify_too_short(self):
        assert not verify_fcs(b"\x01")

    @given(st.binary(max_size=64))
    def test_roundtrip_property(self, data):
        assert verify_fcs(append_fcs(data))
        assert append_fcs(data)[:-2] == data

    @given(st.binary(max_size=300))
    def test_matches_bit_serial_engine(self, data):
        assert compute_fcs(data) == fcs_reference(data)

    def test_matches_bit_serial_engine_on_every_byte(self):
        for value in range(256):
            data = bytes([value, 0xA5, value ^ 0xFF])
            assert compute_fcs(data) == fcs_reference(data)
            assert compute_fcs(bytearray(data)) == fcs_reference(data)
