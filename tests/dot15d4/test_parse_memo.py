"""``MacFrame.parse`` keeps the fields of the last PSDU it parsed.

Every receiver of a transmission parses the same PSDU, so the parser
keeps one entry.  Each call must still behave as a fresh parse: a frame
of its own, the FCS checked, malformed input rejected every time.
"""

import pytest

from repro.dot15d4.frames import (
    Address,
    MacFrame,
    build_ack,
    build_beacon_request,
    build_data,
)

SRC = Address(pan_id=0x1234, address=0x0063)
DST = Address(pan_id=0x1234, address=0x0042)


def _psdu(payload: bytes = b"reading", sequence_number: int = 7) -> bytes:
    return build_data(
        SRC, DST, payload, sequence_number=sequence_number
    ).to_bytes()


def test_mutating_a_returned_frame_does_not_change_the_next_parse():
    psdu = _psdu()
    first = MacFrame.parse(psdu)
    first.payload = b"tampered"
    first.sequence_number = 99
    first.source = None
    second = MacFrame.parse(psdu)
    assert second is not first
    assert second.payload == b"reading"
    assert second.sequence_number == 7
    assert second.source == SRC
    assert second == MacFrame.parse(psdu, check_fcs=False)


def test_alternating_psdus_parse_correctly():
    frames = [
        build_data(SRC, DST, b"one", sequence_number=1),
        build_data(DST, SRC, b"two", sequence_number=2),
        build_ack(3),
        build_beacon_request(),
    ]
    for _round in range(3):
        for frame in frames:
            assert MacFrame.parse(frame.to_bytes()) == frame


@pytest.mark.parametrize(
    "psdu, message",
    [
        (b"\x01\x88", "too short"),
        (b"\x07\x00\x01\x00\x00", "unknown frame type"),
        (b"\x01\x04\x01\x00\x00", "reserved addressing mode"),
        (b"\x41\x88\x01\x34\x12\x00\x00", "truncated addressing"),
    ],
)
def test_malformed_psdu_raises_on_every_call(psdu, message):
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            MacFrame.parse(psdu, check_fcs=False)


def test_malformed_psdu_between_good_ones_raises():
    good = _psdu()
    MacFrame.parse(good)
    with pytest.raises(ValueError):
        MacFrame.parse(b"\x41\x88\x01\x34\x12\x00\x00", check_fcs=False)
    assert MacFrame.parse(good).payload == b"reading"


def test_bad_fcs_is_rejected_even_when_that_psdu_was_just_parsed():
    psdu = _psdu()
    corrupted = psdu[:-1] + bytes([psdu[-1] ^ 0xFF])
    unchecked = MacFrame.parse(corrupted, check_fcs=False)
    assert unchecked == MacFrame.parse(psdu, check_fcs=False)
    # The last PSDU parsed is now *psdu*; make it *corrupted* again, so
    # the checked call below finds its fields kept.
    MacFrame.parse(corrupted, check_fcs=False)
    with pytest.raises(ValueError, match="FCS"):
        MacFrame.parse(corrupted)
    with pytest.raises(ValueError, match="FCS"):
        MacFrame.parse(corrupted)
