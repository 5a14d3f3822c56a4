"""Tests for RFC 4944 fragmentation/reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sixlowpan import fragmentation
from repro.sixlowpan.fragmentation import (
    FRAG1_DISPATCH,
    FRAGN_DISPATCH,
    REASSEMBLY_TIMEOUT_S,
    Reassembler,
    fragment_datagram,
)


def fragment_at(datagram, tag, budget):
    """``fragment_datagram`` under a :data:`MAX_FRAGMENT_PAYLOAD` of
    *budget* bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fragmentation, "MAX_FRAGMENT_PAYLOAD", budget)
        return fragment_datagram(datagram, tag=tag)


def frag1(size, tag, body):
    """A FRAG1 fragment of a *size*-byte datagram."""
    head = (FRAG1_DISPATCH << 8 | size).to_bytes(2, "big")
    return head + tag.to_bytes(2, "big") + body


def fragn(size, tag, offset, body):
    """A FRAGN fragment at byte *offset* (a multiple of 8)."""
    head = (FRAGN_DISPATCH << 8 | size).to_bytes(2, "big")
    return head + tag.to_bytes(2, "big") + bytes([offset // 8]) + body


class TestFragmentation:
    def test_small_datagram_unfragmented(self):
        fragments = fragment_datagram(b"short", tag=1)
        assert fragments == [b"short"]

    def test_large_datagram_fragments(self):
        datagram = bytes(range(256))
        fragments = fragment_at(datagram, 7, 64)
        assert len(fragments) > 2
        assert fragments[0][0] & 0b11111000 == FRAG1_DISPATCH
        for fragment in fragments[1:]:
            assert fragment[0] & 0b11111000 == FRAGN_DISPATCH

    def test_fragment_sizes_respect_budget(self):
        fragments = fragment_at(bytes(500), 1, 80)
        assert all(len(f) <= 80 for f in fragments)

    def test_offsets_are_multiples_of_eight(self):
        fragments = fragment_at(bytes(300), 1, 64)
        for fragment in fragments[1:]:
            assert fragment[4] * 8 % 8 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fragment_datagram(bytes(3000), tag=1)
        with pytest.raises(ValueError):
            fragment_datagram(b"x", tag=1 << 16)


class TestReassembly:
    def test_roundtrip(self):
        datagram = bytes(range(200))
        fragments = fragment_at(datagram, 3, 64)
        reassembler = Reassembler()
        results = [reassembler.accept(0x10, f, 0.0) for f in fragments]
        assert results[-1] == datagram
        assert all(r is None for r in results[:-1])
        assert reassembler.completed == 1
        assert reassembler.pending == 0

    def test_out_of_order(self):
        datagram = bytes(range(200))
        fragments = fragment_at(datagram, 3, 64)
        reassembler = Reassembler()
        results = [
            reassembler.accept(0x10, f, 0.0)
            for f in [fragments[-1], *fragments[:-1]]
        ]
        assert datagram in results

    def test_interleaved_senders(self):
        a = bytes([1]) * 150
        b = bytes([2]) * 150
        fa = fragment_at(a, 1, 64)
        fb = fragment_at(b, 1, 64)
        reassembler = Reassembler()
        outputs = []
        for x, y in zip(fa, fb):
            outputs.append(reassembler.accept(0x10, x, 0.0))
            outputs.append(reassembler.accept(0x20, y, 0.0))
        assert a in outputs and b in outputs

    def test_missing_fragment_stays_pending(self):
        fragments = fragment_at(bytes(300), 9, 64)
        reassembler = Reassembler()
        for fragment in fragments[:-1]:
            assert reassembler.accept(0x10, fragment, 0.0) is None
        assert reassembler.pending == 1
        assert reassembler.completed == 0

    def test_partial_older_than_the_timeout_is_dropped(self):
        fragments = fragment_at(bytes(300), 9, 64)
        reassembler = Reassembler()
        for fragment in fragments[:-1]:
            assert reassembler.accept(0x10, fragment, 1.0) is None
        # At the timeout the partial is still kept...
        assert reassembler.accept(0x20, b"\x60plain", 1.0 + REASSEMBLY_TIMEOUT_S)
        assert reassembler.pending == 1
        assert reassembler.dropped == 0
        # ...past it, the next payload from anyone discards it, and the
        # late last fragment cannot complete it.
        late = 1.5 + REASSEMBLY_TIMEOUT_S
        assert reassembler.accept(0x10, fragments[-1], late) is None
        assert reassembler.dropped == 1
        assert reassembler.completed == 0
        assert reassembler.pending == 1  # the late fragment's own partial

    def test_passthrough_for_plain_payloads(self):
        reassembler = Reassembler()
        assert reassembler.accept(0x10, b"\x60plain", 0.0) == b"\x60plain"

    def test_truncated_header_dropped(self):
        reassembler = Reassembler()
        assert reassembler.accept(0x10, bytes([FRAG1_DISPATCH, 1]), 0.0) is None
        assert reassembler.dropped == 1

    def test_empty_payload(self):
        assert Reassembler().accept(0x10, b"", 0.0) is None

    def test_overlapping_fragment_drops_the_datagram(self):
        # A 12-byte FRAG1 and a 12-byte FRAGN at offset 8 of a 24-byte
        # datagram: the bodies add up to 24, but bytes 20-23 never came.
        reassembler = Reassembler()
        assert reassembler.accept(0x10, frag1(24, 7, b"A" * 12), 0.0) is None
        assert reassembler.accept(0x10, fragn(24, 7, 8, b"B" * 12), 0.0) is None
        assert reassembler.dropped == 1
        assert reassembler.pending == 0
        assert reassembler.completed == 0

    def test_fragment_past_the_datagram_size_drops_it(self):
        reassembler = Reassembler()
        assert reassembler.accept(0x10, frag1(24, 7, b"A" * 16), 0.0) is None
        assert reassembler.accept(0x10, fragn(24, 7, 16, b"B" * 16), 0.0) is None
        assert reassembler.dropped == 1
        assert reassembler.pending == 0
        # The tag is free again: a clean retransmission completes.
        assert reassembler.accept(0x10, frag1(24, 7, b"A" * 16), 0.0) is None
        assert reassembler.accept(0x10, fragn(24, 7, 16, b"B" * 8), 0.0) == (
            b"A" * 16 + b"B" * 8
        )

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=999), st.integers(0, 0xFFFF))
    def test_roundtrip_property(self, body, tag):
        # Real 6LoWPAN datagrams always begin with a valid dispatch byte
        # (IPHC: 011xxxxx) — without one, a raw payload whose first byte
        # collides with the FRAG dispatch space would be ambiguous.
        datagram = b"\x78" + body
        fragments = fragment_at(datagram, tag, 72)
        reassembler = Reassembler()
        result = None
        for fragment in fragments:
            result = reassembler.accept(0x33, fragment, 0.0) or result
        assert result == datagram
