"""Subscriber sessions: one bounded ring + one writer thread per client.

A session connects three things: the broadcast stage (which *offers*
records under the session's backpressure policy), the bounded ring, and
a byte sink (a socket, or an in-process sink in the tests).  The writer
thread drains the ring at the sink's pace; a slow sink therefore fills
the ring, and the policy decides what gives — the producer (``block``),
the oldest queued record (``drop-oldest``) or the session itself
(``disconnect-slow``).

The ledger invariant the service's tests reconcile::

    offered == delivered + shed_by_policy(dropped) + in_flight

holds per session at any quiescent point, and after ``close`` with
``in_flight == 0``.
"""

from __future__ import annotations

import socket
import threading
import time as _time
from typing import Any, Callable, Dict, Optional

from repro.errors import SessionOverflow
from repro.serve.codec import (
    bye_record,
    encode_jsonl,
    encode_pcap_record,
    heartbeat_record,
    pcap_global_header,
)
from repro.serve.config import BACKPRESSURE_POLICIES
from repro.serve.ring import BoundedRing

__all__ = ["Sink", "SocketSink", "SubscriberSession"]

#: Per-send socket timeout; a send that cannot complete within it is
#: treated as a stalled subscriber.
SEND_TIMEOUT_S = 2.0
#: How long ``close`` waits for the writer thread to finish.
CLOSE_TIMEOUT_S = 2.0


class Sink:
    """Minimal byte-sink protocol the session writes through."""

    def write(self, data: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SocketSink(Sink):
    """A connected socket with a bounded per-send timeout.

    A send that cannot complete within :data:`SEND_TIMEOUT_S` (client stopped
    reading and its kernel buffer is full) raises ``socket.timeout`` —
    surfaced to the writer loop as a stall.
    """

    def __init__(self, conn: socket.socket):
        self._conn = conn
        conn.settimeout(SEND_TIMEOUT_S)

    def write(self, data: bytes) -> None:
        self._conn.sendall(data)

    def close(self) -> None:
        try:
            self._conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._conn.close()


class SubscriberSession:
    """One subscriber: ring, policy, codec, writer thread, ledger."""

    def __init__(
        self,
        name: str,
        sink: Sink,
        fmt: str = "jsonl",
        policy: str = "drop-oldest",
        queue_depth: int = 256,
        heartbeat_s: float = 0.5,
        stall_timeout_s: float = 2.0,
        on_closed: Optional[Callable[["SubscriberSession", str], None]] = None,
    ):
        if fmt not in ("jsonl", "pcap"):
            raise ValueError(f"unknown stream format {fmt!r}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r}")
        self.name = name
        self.sink = sink
        self.fmt = fmt
        self.policy = policy
        self.ring = BoundedRing(queue_depth)
        self.heartbeat_s = heartbeat_s
        self.stall_timeout_s = stall_timeout_s
        self._on_closed = on_closed
        # Ledger (offered/delivered/dropped count *frame* records; the
        # control plane is accounted separately).
        self.frames_offered = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        #: Frames the shed ladder kept from this session (set by the
        #: server's broadcast stage; part of the per-session ledger).
        self.frames_shed = 0
        self.records_delivered = 0
        self.heartbeats_sent = 0
        self.close_reason: Optional[str] = None
        self.last_progress = _time.monotonic()
        #: The record popped but not yet written — if the write fails,
        #: ``_finish`` moves it onto the drop ledger so no frame is ever
        #: lost between the ring and the sink unaccounted.
        self._in_hand: Optional[Dict[str, Any]] = None
        self._closed = threading.Event()
        self._finished = False
        self._draining = threading.Event()
        self._disconnect_requested: Optional[str] = None
        self._lock = threading.Lock()
        self._writer = threading.Thread(
            target=self._writer_loop, name=f"serve-writer-{name}", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self.fmt == "pcap":
            # The global header precedes any record; written from the
            # caller's thread so subscribers can parse immediately.
            self.sink.write(pcap_global_header())
        self._writer.start()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def request_disconnect(self, reason: str) -> None:
        """Ask the writer loop to close this session (thread-safe)."""
        with self._lock:
            if self._disconnect_requested is None:
                self._disconnect_requested = reason

    # -- producer side ------------------------------------------------------
    def offer(self, record: Dict[str, Any]) -> bool:
        """Queue one record under this session's backpressure policy.

        Returns True when the record was admitted to the ring.  Raises
        :class:`SessionOverflow` for a timed-out ``block`` admission —
        the caller (broadcast stage) converts that into a disconnect.
        """
        if self.closed or self._disconnect_requested is not None:
            return False
        is_frame = record.get("type") == "frame"
        if is_frame:
            self.frames_offered += 1
        if self.policy == "block":
            if not self.ring.push_wait(record, self.stall_timeout_s):
                if is_frame:
                    self.frames_dropped += 1
                raise SessionOverflow(
                    self.name, self.ring.capacity, self.stall_timeout_s
                )
            return True
        if self.policy == "drop-oldest":
            victim = self.ring.push_evict(record)
            if victim is not None and victim.get("type") == "frame":
                self.frames_dropped += 1
            return True
        # disconnect-slow
        if not self.ring.try_push(record):
            if is_frame:
                self.frames_dropped += 1
            self.request_disconnect("disconnect-slow")
            return False
        return True

    # -- writer loop --------------------------------------------------------
    def _encode(self, record: Dict[str, Any]) -> bytes:
        if self.fmt == "pcap":
            return encode_pcap_record(record)
        return encode_jsonl(record)

    def _writer_loop(self) -> None:
        reason = "closed"
        sink_failed = False
        try:
            while True:
                with self._lock:
                    requested = self._disconnect_requested
                if requested is not None and len(self.ring) == 0:
                    reason = requested
                    break
                record = self.ring.pop(timeout_s=self.heartbeat_s)
                if record is None:
                    if self._draining.is_set():
                        reason = "drained"
                        break
                    if requested is not None:
                        reason = requested
                        break
                    if self.fmt == "jsonl":
                        beat = heartbeat_record(
                            _time.monotonic(), self.records_delivered
                        )
                        self.sink.write(self._encode(beat))
                        self.heartbeats_sent += 1
                    continue
                if record.get("type") == "__bye__":
                    reason = record.get("reason", "bye")
                    break
                self._in_hand = record
                data = self._encode(record)
                if data:
                    self.sink.write(data)
                self._in_hand = None
                self.records_delivered += 1
                if record.get("type") == "frame":
                    self.frames_delivered += 1
                self.last_progress = _time.monotonic()
        except (OSError, socket.timeout) as exc:
            reason = f"socket-error:{type(exc).__name__}"
            sink_failed = True
        except Exception as exc:  # pragma: no cover - defensive
            reason = f"writer-crash:{type(exc).__name__}"
        finally:
            self._finish(reason, sink_failed)

    def _finish(self, reason: str, sink_failed: bool = False) -> None:
        """Close with *reason*.  A jsonl stream ends with a ``bye`` record
        unless its sink just failed: a write to a socket that timed out
        would wait out a second timeout only to fail again."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
        self.close_reason = reason
        # A record that left the ring but never survived its write is a
        # drop, same as anything still queued: the ledger stays exact.
        in_hand, self._in_hand = self._in_hand, None
        if in_hand is not None and in_hand.get("type") == "frame":
            self.frames_dropped += 1
        # Anything still queued was never delivered: it lands on the
        # drop ledger so offered == delivered + dropped after close.
        for record in self.ring.drain():
            if record.get("type") == "frame":
                self.frames_dropped += 1
        if self.fmt == "jsonl" and not sink_failed:
            try:
                self.sink.write(
                    self._encode(
                        bye_record(
                            reason,
                            frames_delivered=self.frames_delivered,
                            frames_dropped=self.frames_dropped,
                        )
                    )
                )
            except (OSError, socket.timeout):
                pass
        try:
            self.sink.close()
        except OSError:
            pass
        self._closed.set()
        if self._on_closed is not None:
            self._on_closed(self, reason)

    # -- drain / close ------------------------------------------------------
    def drain(self, timeout_s: float) -> bool:
        """Deliver everything queued, then close with reason "drained".

        Returns True when the ring emptied within *timeout_s*.
        """
        self._draining.set()
        deadline = _time.monotonic() + timeout_s
        while len(self.ring) > 0 and _time.monotonic() < deadline:
            _time.sleep(0.01)
        emptied = len(self.ring) == 0
        self._push_sentinel("drained")
        self._writer.join(timeout=timeout_s)
        if not self._closed.is_set():
            self._finish("drain-timeout")
        return emptied

    def _push_sentinel(self, reason: str) -> None:
        victim = self.ring.push_evict({"type": "__bye__", "reason": reason})
        if victim is not None and victim.get("type") == "frame":
            self.frames_dropped += 1

    def close(self, reason: str = "closed") -> None:
        """Close without waiting for queued records (queued → dropped)."""
        self.request_disconnect(reason)
        # Wake the writer promptly if it is waiting on an empty ring.
        self._push_sentinel(reason)
        self._writer.join(timeout=CLOSE_TIMEOUT_S)
        if not self._closed.is_set():
            self._finish(reason)

    # -- ledger -------------------------------------------------------------
    def ledger(self) -> Dict[str, int]:
        return {
            "offered": self.frames_offered,
            "delivered": self.frames_delivered,
            "dropped": self.frames_dropped,
            "in_flight": sum(
                1
                for r in self.ring.snapshot()
                if isinstance(r, dict) and r.get("type") == "frame"
            ),
        }
