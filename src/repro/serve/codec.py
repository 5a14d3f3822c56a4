"""Record shapes and wire codecs for the sniffer service.

Every payload the service moves is a flat JSON-able dict with a ``type``
key — the *record*:

``frame``
    One decoded 802.15.4 frame: ``seq`` (production index), ``time``
    (simulated seconds), ``channel``, ``psdu`` (hex, FCS included),
    ``fcs_ok`` and ``mean_distance`` (decode quality).
``trace``
    One obs-layer trace event, wrapped verbatim — the first record class
    shed under queue pressure.
``notice``
    Service announcements: shed-level changes, drain start, slow-client
    disconnects.  Notices bypass the shed ladder.
``heartbeat``
    Emitted on an idle stream so subscribers can distinguish "quiet
    channel" from "dead service".
``bye``
    The last record of a session, carrying the close reason and the
    session's final delivery ledger.

Two wire formats carry records to subscribers:

* **JSONL** — every record, one ``sort_keys`` JSON object per line.  The
  deterministic key order is what makes spool replay byte-for-byte
  comparable.
* **PCAP** (DLT 195, ``IEEE802_15_4_WITHFCS``) — frame records only;
  control records have no pcap representation and are skipped.  The
  parser half (:func:`parse_pcap`) exists so tests and the CI smoke job
  can validate emitted captures without external tooling.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Tuple

from repro.errors import SpoolError

__all__ = [
    "DLT_IEEE802_15_4",
    "PCAP_SNAPLEN",
    "frame_record",
    "notice_record",
    "heartbeat_record",
    "bye_record",
    "trace_record",
    "encode_jsonl",
    "decode_jsonl",
    "pcap_global_header",
    "encode_pcap_record",
    "parse_pcap",
]

#: Link type 195: IEEE 802.15.4 with the FCS trailing each frame —
#: matches :class:`~repro.core.rx.DecodedFrame.psdu`, which keeps it.
DLT_IEEE802_15_4 = 195
#: Max PSDU is 127 bytes; 128 covers every capture without truncation.
PCAP_SNAPLEN = 128

_PCAP_MAGIC = 0xA1B2C3D4
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


# ---------------------------------------------------------------------------
# Record constructors
# ---------------------------------------------------------------------------


def frame_record(
    seq: int,
    time: float,
    channel: int,
    psdu: bytes,
    fcs_ok: bool,
    mean_distance: float = 0.0,
) -> Dict[str, Any]:
    return {
        "type": "frame",
        "seq": seq,
        "time": time,
        "channel": channel,
        "psdu": psdu.hex(),
        "fcs_ok": bool(fcs_ok),
        "mean_distance": float(mean_distance),
    }


def trace_record(event: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "trace", **event}


def notice_record(kind: str, **fields) -> Dict[str, Any]:
    return {"type": "notice", "kind": kind, **fields}


def heartbeat_record(time: float, delivered: int) -> Dict[str, Any]:
    return {"type": "heartbeat", "time": time, "delivered": delivered}


def bye_record(reason: str, **fields) -> Dict[str, Any]:
    return {"type": "bye", "reason": reason, **fields}


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def encode_jsonl(record: Dict[str, Any]) -> bytes:
    """One record as one deterministic (sorted-key) JSON line."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def decode_jsonl(line: bytes) -> Dict[str, Any]:
    return json.loads(line.decode("utf-8"))


# ---------------------------------------------------------------------------
# PCAP
# ---------------------------------------------------------------------------


def pcap_global_header(snaplen: int = PCAP_SNAPLEN) -> bytes:
    """Classic little-endian pcap file header for DLT 195."""
    return _GLOBAL_HEADER.pack(
        _PCAP_MAGIC, 2, 4, 0, 0, snaplen, DLT_IEEE802_15_4
    )


def encode_pcap_record(record: Dict[str, Any]) -> bytes:
    """One frame record as a pcap record; b"" for control records."""
    if record.get("type") != "frame":
        return b""
    psdu = bytes.fromhex(record["psdu"])
    time = float(record.get("time", 0.0))
    ts_sec = int(time)
    ts_usec = int(round((time - ts_sec) * 1e6))
    if ts_usec >= 1_000_000:  # guard the rounding edge at .999999+
        ts_sec, ts_usec = ts_sec + 1, 0
    header = _RECORD_HEADER.pack(ts_sec, ts_usec, len(psdu), len(psdu))
    return header + psdu


def parse_pcap(
    data: bytes,
) -> Tuple[Dict[str, int], List[Dict[str, Any]]]:
    """Parse a pcap byte string into (header info, packet dicts).

    Strict enough for the CI smoke job: validates the magic, version and
    link type, and that every record's lengths are self-consistent.  A
    truncated final record raises :class:`SpoolError` — a stream cut
    mid-record is exactly what the drain logic must never produce.
    """
    if len(data) < _GLOBAL_HEADER.size:
        raise SpoolError("pcap stream shorter than its global header")
    magic, major, minor, _zone, _sig, snaplen, network = _GLOBAL_HEADER.unpack_from(
        data, 0
    )
    if magic != _PCAP_MAGIC:
        raise SpoolError(f"bad pcap magic 0x{magic:08x}")
    if (major, minor) != (2, 4):
        raise SpoolError(f"unsupported pcap version {major}.{minor}")
    if network != DLT_IEEE802_15_4:
        raise SpoolError(f"unexpected link type {network}")
    header = {
        "version": (major, minor),
        "snaplen": snaplen,
        "network": network,
    }
    packets: List[Dict[str, Any]] = []
    offset = _GLOBAL_HEADER.size
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            raise SpoolError("truncated pcap record header")
        ts_sec, ts_usec, incl_len, orig_len = _RECORD_HEADER.unpack_from(
            data, offset
        )
        offset += _RECORD_HEADER.size
        if incl_len != orig_len or incl_len > snaplen:
            raise SpoolError(
                f"inconsistent pcap record lengths ({incl_len}/{orig_len})"
            )
        if offset + incl_len > len(data):
            raise SpoolError("truncated pcap record body")
        packets.append(
            {
                "time": ts_sec + ts_usec / 1e6,
                "psdu": data[offset : offset + incl_len],
            }
        )
        offset += incl_len
    return header, packets
