"""Tests for the generic CRC engine against published check values."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.crc import CrcEngine


class TestKnownVectors:
    def test_crc16_kermit_check_value(self):
        # CRC-16/KERMIT: poly 0x1021, init 0, reflected; check("123456789").
        # The engine reflects its input (LSB-first bytes) but not its output.
        engine = CrcEngine(width=16, polynomial=0x1021, init=0)
        assert int(f"{engine.compute(b'123456789'):016b}"[::-1], 2) == 0x2189

    def test_crc16_kermit_empty(self):
        engine = CrcEngine(width=16, polynomial=0x1021, init=0)
        assert engine.compute(b"") == 0x0000

    def test_ble_crc24_differs_by_init(self):
        poly = 0x65B
        a = CrcEngine(24, poly, init=0x555555).compute(b"\x00\x01")
        b = CrcEngine(24, poly, init=0x000001).compute(b"\x00\x01")
        assert a != b


class TestEngineBehaviour:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            CrcEngine(width=0, polynomial=0x07)

    def test_digest_bits_msb(self):
        engine = CrcEngine(width=8, polynomial=0x07, init=0)
        value = engine.compute(b"A")
        bits = engine.digest_bits(b"A")
        assert len(bits) == 8
        assert int("".join(map(str, bits)), 2) == value

    @given(st.binary(min_size=1, max_size=32))
    def test_single_bitflip_detected(self, data):
        """A CRC must detect any single-bit error."""
        engine = CrcEngine(width=16, polynomial=0x1021, init=0xFFFF)
        clean = engine.compute(data)
        flipped = bytearray(data)
        flipped[0] ^= 0x01
        assert engine.compute(bytes(flipped)) != clean

    @given(st.binary(max_size=32))
    def test_deterministic(self, data):
        engine = CrcEngine(width=16, polynomial=0x1021)
        assert engine.compute(data) == engine.compute(data)


class TestTableDrivenFastPath:
    """compute() is table-driven; compute_bits() is the serial reference."""

    ENGINES = [
        CrcEngine(16, 0x1021),  # 802.15.4 ITU-T FCS
        CrcEngine(24, 0x00065B, init=0x555555),  # BLE advertising CRC
        CrcEngine(16, 0x1021, init=0xFFFF),
        CrcEngine(8, 0x07),
    ]

    @given(st.binary(max_size=48), st.integers(0, 3))
    def test_matches_bit_serial_reference(self, data, engine_index):
        from repro.utils.bits import bytes_to_bits

        engine = self.ENGINES[engine_index]
        assert engine.compute(data) == engine.compute_bits(
            bytes_to_bits(data)
        )

    def test_sub_byte_width_falls_back_to_serial(self):
        from repro.utils.bits import bytes_to_bits

        engine = CrcEngine(7, 0x09)
        assert engine._table is None
        assert engine.compute(b"abc") == engine.compute_bits(
            bytes_to_bits(b"abc")
        )
