"""Tests for the 802.15.4 MAC frame codec."""

import pytest
from hypothesis import given, strategies as st

from repro.dot15d4.frames import (
    Address,
    AddressingMode,
    BROADCAST_PAN,
    BROADCAST_SHORT,
    CommandId,
    FrameType,
    MacFrame,
    build_ack,
    build_beacon,
    build_beacon_request,
    build_data,
)


SRC = Address(pan_id=0x1234, address=0x0063)
DST = Address(pan_id=0x1234, address=0x0042)


class TestAddress:
    def test_str(self):
        assert str(SRC) == "0x0063@0x1234"

    def test_broadcast(self):
        assert Address(pan_id=0xFFFF, address=0xFFFF).is_broadcast()
        assert not SRC.is_broadcast()

    def test_extended_bytes(self):
        ext = Address(
            pan_id=1, address=0x1122334455667788, mode=AddressingMode.EXTENDED
        )
        assert ext.address_bytes == bytes.fromhex("8877665544332211")

    def test_validation(self):
        with pytest.raises(ValueError):
            Address(pan_id=0x10000, address=0)
        with pytest.raises(ValueError):
            Address(pan_id=0, address=0x10000)
        with pytest.raises(ValueError):
            Address(pan_id=0, address=0, mode=AddressingMode.NONE)


class TestCodec:
    def test_data_roundtrip(self):
        frame = build_data(SRC, DST, b"payload", sequence_number=9)
        parsed = MacFrame.parse(frame.to_bytes())
        assert parsed.frame_type is FrameType.DATA
        assert parsed.sequence_number == 9
        assert parsed.payload == b"payload"
        assert parsed.source == SRC
        assert parsed.destination == DST
        assert parsed.ack_request

    def test_pan_id_compression(self):
        frame = build_data(SRC, DST, b"x")
        assert frame.pan_id_compression
        # Compressed: src PAN omitted on the wire.
        uncompressed = MacFrame(
            frame_type=FrameType.DATA,
            destination=DST,
            source=SRC,
            payload=b"x",
            pan_id_compression=False,
        )
        assert len(frame.encode()) == len(uncompressed.encode()) - 2

    def test_cross_pan_no_compression(self):
        other = Address(pan_id=0x9999, address=0x0001)
        frame = build_data(SRC, other, b"x")
        assert not frame.pan_id_compression
        parsed = MacFrame.parse(frame.to_bytes())
        assert parsed.source.pan_id == 0x1234

    def test_ack_roundtrip(self):
        parsed = MacFrame.parse(build_ack(77).to_bytes())
        assert parsed.frame_type is FrameType.ACK
        assert parsed.sequence_number == 77
        assert parsed.source is None and parsed.destination is None

    def test_beacon_request_layout(self):
        frame = build_beacon_request()
        parsed = MacFrame.parse(frame.to_bytes())
        assert parsed.frame_type is FrameType.COMMAND
        assert parsed.payload == bytes([CommandId.BEACON_REQUEST])
        assert parsed.destination.pan_id == BROADCAST_PAN
        assert parsed.destination.address == BROADCAST_SHORT
        assert parsed.source is None

    def test_beacon_roundtrip(self):
        beacon = build_beacon(SRC)
        parsed = MacFrame.parse(beacon.to_bytes())
        assert parsed.frame_type is FrameType.BEACON
        # Superframe spec (2 bytes), GTS and pending-address fields, and
        # no application payload.
        superframe = int.from_bytes(parsed.payload[0:2], "little")
        assert parsed.payload[2:] == bytes(2)
        assert superframe & (1 << 15)  # association permit
        assert superframe & (1 << 14)  # PAN coordinator

    def test_extended_addressing_roundtrip(self):
        ext_src = Address(
            pan_id=0x1234, address=0xDEADBEEF12345678, mode=AddressingMode.EXTENDED
        )
        frame = MacFrame(
            frame_type=FrameType.DATA,
            destination=DST,
            source=ext_src,
            payload=b"!",
            pan_id_compression=True,
        )
        parsed = MacFrame.parse(frame.to_bytes())
        assert parsed.source == ext_src

    def test_fcs_enforced(self):
        raw = bytearray(build_data(SRC, DST, b"x").to_bytes())
        raw[-1] ^= 0xFF
        with pytest.raises(ValueError):
            MacFrame.parse(bytes(raw))
        parsed = MacFrame.parse(bytes(raw), check_fcs=False)
        assert parsed.payload == b"x"

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            MacFrame.parse(b"\x00\x00")

    def test_truncated_addressing_rejected(self):
        frame = build_data(SRC, DST, b"")
        body = frame.encode()[:6]
        from repro.dot15d4.fcs import append_fcs

        with pytest.raises(ValueError):
            MacFrame.parse(append_fcs(body))

    def test_sequence_number_validation(self):
        frame = build_data(SRC, DST, b"", sequence_number=0)
        frame.sequence_number = 300
        with pytest.raises(ValueError):
            frame.encode()

    @given(
        st.binary(max_size=40),
        st.integers(0, 255),
        st.booleans(),
    )
    def test_roundtrip_property(self, payload, seq, ack):
        frame = build_data(SRC, DST, payload, sequence_number=seq, ack_request=ack)
        parsed = MacFrame.parse(frame.to_bytes())
        assert parsed.payload == payload
        assert parsed.sequence_number == seq
        assert parsed.ack_request == ack
