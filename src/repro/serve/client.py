"""Subscriber client for the sniffer service's Unix-socket protocol.

Protocol, from the client's side:

1. connect to the Unix stream socket;
2. send one JSON *hello* line choosing the stream format
   (``jsonl``/``pcap``) and an optional session name (the session runs
   under the service's default backpressure policy);
3. read records — JSONL lines, or the pcap global header followed by
   pcap records.

The client is used by ``examples/live_sniffer.py``, the service tests
and the CI smoke job; it deliberately has no dependency on the server
side beyond the codec.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Iterator, Optional

from repro.serve.codec import decode_jsonl

__all__ = ["SnifferClient", "subscribe"]


class SnifferClient:
    """One subscription to a running sniffer service."""

    def __init__(
        self,
        path: str,
        fmt: str = "jsonl",
        name: Optional[str] = None,
        timeout_s: float = 10.0,
    ):
        self.fmt = fmt
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(path)
        hello: Dict[str, Any] = {"format": fmt}
        if name is not None:
            hello["name"] = name
        self._sock.sendall((json.dumps(hello) + "\n").encode("utf-8"))
        self._buffer = bytearray()

    # -- byte plumbing ------------------------------------------------------
    def _recv_more(self) -> bool:
        try:
            chunk = self._sock.recv(65536)
        except socket.timeout:
            return False
        if not chunk:
            return False
        self._buffer.extend(chunk)
        return True

    def read_exact(self, n: int) -> bytes:
        while len(self._buffer) < n:
            if not self._recv_more():
                raise ConnectionError(
                    f"stream ended with {len(self._buffer)}/{n} bytes buffered"
                )
        data = bytes(self._buffer[:n])
        del self._buffer[:n]
        return data

    def read_all(self) -> bytes:
        """Drain the socket until it closes (or a read times out)."""
        while self._recv_more():
            pass
        data = bytes(self._buffer)
        self._buffer.clear()
        return data

    # -- jsonl --------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, Any]]:
        """Yield decoded JSONL records until ``bye`` or EOF."""
        assert self.fmt == "jsonl", "records() is for jsonl sessions"
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if not self._recv_more():
                    return
                continue
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if not line.strip():
                continue
            record = decode_jsonl(line)
            yield record
            if record.get("type") == "bye":
                return

    def frames(self, limit: int) -> Iterator[Dict[str, Any]]:
        """Yield only frame records, up to *limit*.

        Stops early at ``bye`` or EOF, and once no frame has arrived for
        the client's timeout: heartbeats keep an idle stream open, so a
        subscriber that attached after the last frame would otherwise
        wait forever.
        """
        count = 0
        timeout_s = self._sock.gettimeout()
        deadline = time.monotonic() + timeout_s
        for record in self.records():
            if record.get("type") == "frame":
                deadline = time.monotonic() + timeout_s
                yield record
                count += 1
                if count >= limit:
                    return
            elif time.monotonic() > deadline:
                return

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SnifferClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def subscribe(
    path: str,
    fmt: str = "jsonl",
    name: Optional[str] = None,
    timeout_s: float = 10.0,
) -> SnifferClient:
    """Convenience constructor mirroring the server's ``attach_session``."""
    return SnifferClient(path, fmt=fmt, name=name, timeout_s=timeout_s)
