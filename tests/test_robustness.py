"""Fuzz/robustness tests: every decode path must fail *cleanly* on garbage.

A decoder facing attacker-controlled or corrupted input may return ``None``
or raise ``ValueError`` (or a documented subclass) — never ``IndexError``,
``KeyError``, struct errors, or silent nonsense.  The service's readers of
spool files and PCAP streams raise only :class:`~repro.errors.SpoolError`.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ble.packets import AdStructure, AuxPtr, ExtendedAdvertisingPdu, parse_pdu_bits
from repro.core.rx import decode_payload_bits
from repro.dot15d4.frames import MacFrame
from repro.dot15d4.security import SecurityContext, SecurityError
from repro.errors import SpoolError
from repro.phy.ieee802154 import Ppdu
from repro.serve.codec import (
    encode_pcap_record,
    frame_record,
    parse_pcap,
    pcap_global_header,
)
from repro.serve.spool import SPOOL_FORMAT, SpoolReader
from repro.sixlowpan.fragmentation import Reassembler
from repro.sixlowpan.iphc import decompress_datagram
from repro.sixlowpan.ipv6 import Ipv6Header, UdpDatagram
from repro.zigbee.xbee import parse_app_payload

binary = st.binary(max_size=200)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
#: Spool lines: valid records and footers, other JSON, and raw bytes.
spool_lines = st.one_of(
    st.integers(0, 9).map(lambda seq: json.dumps({"type": "frame", "seq": seq})),
    json_values.map(lambda n: json.dumps({"type": "spool-end", "records": n})),
    json_values.map(json.dumps),
).map(str.encode) | st.binary(max_size=40).map(lambda b: b.replace(b"\n", b""))
spool_header = json.dumps({"type": "spool-header", "format": SPOOL_FORMAT}).encode()
bits = st.lists(st.integers(0, 1), max_size=2048).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestFrameDecoders:
    @given(binary)
    def test_mac_frame_parse(self, data):
        try:
            MacFrame.parse(data)
        except ValueError:
            pass

    @given(binary)
    def test_mac_frame_parse_unchecked(self, data):
        try:
            MacFrame.parse(data, check_fcs=False)
        except ValueError:
            pass

    @given(st.lists(st.integers(0, 15), max_size=80))
    def test_ppdu_parse_symbols(self, symbols):
        result = Ppdu.parse_symbols(symbols)
        assert result is None or isinstance(result, Ppdu)

    @given(bits)
    def test_wazabee_decode_payload_bits(self, data):
        result = decode_payload_bits(data)
        assert result is None or result.psdu is not None


class TestBleDecoders:
    @given(bits)
    def test_parse_pdu_bits(self, data):
        try:
            parse_pdu_bits(data, channel=8)
        except ValueError:
            pass

    @given(binary)
    def test_extended_adv_from_pdu(self, data):
        try:
            ExtendedAdvertisingPdu.from_pdu(data)
        except ValueError:
            pass

    @given(binary)
    def test_ad_structures(self, data):
        try:
            AdStructure.parse_all(data)
        except ValueError:
            pass

    @given(st.binary(min_size=3, max_size=3))
    def test_aux_ptr(self, data):
        ptr = AuxPtr.from_bytes(data)
        assert 0 <= ptr.channel <= 63


class TestApplicationDecoders:
    @given(binary)
    def test_xbee_payload(self, data):
        parse_app_payload(data)  # returns dataclass or None, never raises

    @given(binary)
    def test_sixlowpan_decompress(self, data):
        try:
            decompress_datagram(data)
        except ValueError:
            pass  # and nothing else — truncation must be a clean error

    @given(binary)
    def test_udp_parse(self, data):
        try:
            UdpDatagram.from_bytes(data)
        except ValueError:
            pass

    @settings(max_examples=200)
    @given(st.integers(0, 0xFFFF), binary)
    def test_reassembler_never_crashes(self, sender, payload):
        reassembler = Reassembler()
        reassembler.accept(sender, payload, 0.0)


class TestSecurityDecoder:
    @given(binary, st.integers(0, 255))
    def test_unprotect_garbage(self, payload, seq):
        from repro.dot15d4.frames import Address, FrameType

        context = SecurityContext(key=bytes(16))
        frame = MacFrame(
            frame_type=FrameType.DATA,
            sequence_number=seq,
            source=Address(pan_id=1, address=2),
            destination=Address(pan_id=1, address=3),
            payload=payload,
            security_enabled=True,
        )
        with pytest.raises(SecurityError):
            context.unprotect(frame)


class TestServeDecoders:
    @given(
        st.just(spool_header) | spool_lines,
        st.lists(spool_lines, max_size=6),
        st.booleans(),
    )
    def test_spool_reader(self, header, lines, newline_at_end):
        data = b"\n".join([header, *lines]) + (b"\n" if newline_at_end else b"")
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fuzz.spool")
            with open(path, "wb") as handle:
                handle.write(data)
            try:
                SpoolReader(path)
            except SpoolError:
                pass

    @pytest.mark.parametrize(
        "data",
        [
            b"[]",
            spool_header + b"\n1",
            spool_header + b'\n{"type":"spool-end","records":"x"}',
            spool_header + b'\n{"type":"spool-end","records":null}',
        ],
    )
    def test_spool_reader_rejects_malformed_lines(self, tmp_path, data):
        path = tmp_path / "bad.spool"
        path.write_bytes(data)
        with pytest.raises(SpoolError):
            SpoolReader(str(path))

    @given(binary | binary.map(lambda tail: pcap_global_header() + tail))
    def test_parse_pcap(self, data):
        try:
            parse_pcap(data)
        except SpoolError:
            pass

    @given(st.lists(st.binary(max_size=40), max_size=4), st.integers(0, 40))
    def test_parse_pcap_of_cut_streams(self, psdus, cut):
        stream = pcap_global_header() + b"".join(
            encode_pcap_record(frame_record(seq, 0.5, 11, psdu, fcs_ok=True))
            for seq, psdu in enumerate(psdus)
        )
        try:
            parse_pcap(stream[: len(stream) - cut])
        except SpoolError:
            pass
