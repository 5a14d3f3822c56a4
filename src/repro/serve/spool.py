"""Crash-safe frame spool: the service's durable record of what it produced.

The spool is an append-only JSONL file.  Line one is a header stamping
the format and the run's parameters; every subsequent line is one frame
record, flushed to the OS as it is written, so a SIGKILL mid-run loses at
most the partially-written final line.  A clean shutdown appends a
``spool-end`` footer with the final count; :class:`SpoolReader` treats a
missing footer (crash) and a truncated tail line as expected, and raises
:class:`~repro.errors.SpoolError`, and no other error, on anything else
malformed: a missing or foreign header, a torn line before the tail, a
record that is not a JSON object, or a footer without a true count.

``repro serve --replay SPOOL`` feeds the recorded records back through
the service verbatim — and because records encode with sorted keys, the
replayed frame stream is byte-for-byte identical to the original.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SpoolError
from repro.serve.codec import encode_jsonl

__all__ = ["SPOOL_FORMAT", "SpoolWriter", "SpoolReader"]

SPOOL_FORMAT = "wazabee-spool/1"

#: What ``json.loads`` raises on a line that is no JSON: a syntax error,
#: bytes that are not UTF-8 (both ``ValueError``), or nesting too deep.
_UNPARSABLE = (ValueError, RecursionError)


class SpoolWriter:
    """Append frame records to a spool file, one flushed line each."""

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None):
        self.path = path
        self.records_written = 0
        self._handle = open(path, "wb")
        header = {"type": "spool-header", "format": SPOOL_FORMAT}
        header.update(meta or {})
        self._handle.write(encode_jsonl(header))
        self._handle.flush()
        self._closed = False

    def append(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise SpoolError(f"spool {self.path!r} already finalised")
        self._handle.write(encode_jsonl(record))
        # Flush per record: the crash-safety contract is "everything but
        # possibly the last line survives a hard kill".
        self._handle.flush()
        self.records_written += 1

    def close(self) -> None:
        """Finalise with a footer and make the file durable."""
        if self._closed:
            return
        self._closed = True
        footer = {"type": "spool-end", "records": self.records_written}
        self._handle.write(encode_jsonl(footer))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()

    def __enter__(self) -> "SpoolWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SpoolReader:
    """Load a spool file, tolerating a crash-truncated tail."""

    def __init__(self, path: str):
        self.path = path
        self.meta: Dict[str, Any] = {}
        #: True when the clean-shutdown footer was present and agreed
        #: with the record count.
        self.complete = False
        self._records: List[Dict[str, Any]] = []
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                lines = handle.read().split(b"\n")
        except OSError as exc:
            raise SpoolError(f"cannot read spool {self.path!r}: {exc}") from exc
        if not lines or not lines[0].strip():
            raise SpoolError(f"spool {self.path!r} is empty")
        try:
            header = json.loads(lines[0])
        except _UNPARSABLE as exc:
            raise SpoolError(f"spool {self.path!r} has no valid header") from exc
        if (
            not isinstance(header, dict)
            or header.get("type") != "spool-header"
            or header.get("format") != SPOOL_FORMAT
        ):
            raise SpoolError(
                f"spool {self.path!r} is not a {SPOOL_FORMAT} file"
            )
        self.meta = {
            k: v for k, v in header.items() if k not in ("type", "format")
        }
        footer_count: Optional[int] = None
        for index, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except _UNPARSABLE:
                # A torn final line is the expected crash signature; a
                # torn line *followed by* valid records is corruption.
                if any(tail.strip() for tail in lines[index:]):
                    raise SpoolError(
                        f"spool {self.path!r} corrupt at line {index}"
                    ) from None
                break
            if not isinstance(record, dict):
                # Whole JSON, so not a tear: a record that is no object.
                raise SpoolError(f"spool {self.path!r} corrupt at line {index}")
            if record.get("type") == "spool-end":
                footer_count = record.get("records")
                if type(footer_count) is not int:
                    raise SpoolError(
                        f"spool {self.path!r} footer has no record count"
                    )
                continue
            self._records.append(record)
        if footer_count is not None:
            if footer_count != len(self._records):
                raise SpoolError(
                    f"spool {self.path!r} footer claims {footer_count} "
                    f"records, found {len(self._records)}"
                )
            self.complete = True

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[Dict[str, Any]]:
        """The spooled records, in production order."""
        return iter(self._records)

    def frame_records(self) -> List[Dict[str, Any]]:
        return [r for r in self._records if r.get("type") == "frame"]
