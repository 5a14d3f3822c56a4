"""Unit and property tests for repro.utils.bits."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
    pack_bits,
    parse_bitstring,
)


class TestParseBitstring:
    def test_simple(self):
        assert parse_bitstring("1010").tolist() == [1, 0, 1, 0]

    def test_whitespace_ignored(self):
        assert parse_bitstring("11 00\t1\n0").tolist() == [1, 1, 0, 0, 1, 0]

    def test_empty(self):
        assert parse_bitstring("").size == 0

    def test_rejects_other_characters(self):
        with pytest.raises(ValueError):
            parse_bitstring("10a1")


class TestByteConversions:
    def test_lsb_first_default(self):
        # 0x01 -> bit 0 first.
        assert bytes_to_bits(b"\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_roundtrip_lsb(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_non_multiple_of_eight_rejected(self):
        with pytest.raises(ValueError):
            bits_to_bytes([1, 0, 1])

    def test_pack_bits_pads_tail(self):
        assert pack_bits([1]) == b"\x01"
        assert pack_bits([0, 0, 0, 0, 0, 0, 0, 0, 1]) == b"\x00\x01"

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            bits_to_int([1, 0], order="little")

    @given(st.binary(max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestIntConversions:
    def test_lsb(self):
        assert int_to_bits(0b110, 3).tolist() == [0, 1, 1]

    def test_msb(self):
        assert bits_to_int([1, 1, 0], order="msb") == 0b110

    def test_width_zero(self):
        assert int_to_bits(0, 0).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_32bit(self, value):
        assert bits_to_int(int_to_bits(value, 32)) == value
        assert bits_to_int(int_to_bits(value, 32)[::-1], "msb") == value
