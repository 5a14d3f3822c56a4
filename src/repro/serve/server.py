"""The supervised streaming sniffer server behind ``repro serve``.

Wiring::

    SimWorldSource ──publish──▶ spool ──▶ shed ladder ──▶ session rings
        (stage)                                               │ writer threads
    SpoolReplaySource (--replay)                              ▼
    accept loop (stage) ──▶ handshake ──▶ SubscriberSession  sinks (sockets)
    monitor (stage) ──▶ stalls / idle timeouts

Everything that can fail independently is a supervised stage; everything
that can block is behind a bounded ring.  The broadcast path is single-
threaded (one ``publish`` lock), which is what makes the frame ledger
exact: every produced frame is spooled, then either shed by the ladder
(counted per class) or offered to every open session, where the
session's policy accounts for it as delivered or dropped.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
from typing import Any, Dict, List, Optional

from repro.errors import SessionOverflow
from repro.faults import ChaoticSink, named_service_profile
from repro.obs import SERVE_SESSION, SERVE_SHED
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.serve.codec import notice_record
from repro.serve.config import ServeConfig
from repro.serve.session import Sink, SocketSink, SubscriberSession
from repro.serve.shed import SHED_LEVEL_NAMES, DegradeLadder
from repro.serve.source import SimWorldSource, SpoolReplaySource
from repro.serve.spool import SpoolWriter
from repro.serve.supervisor import Supervisor, monitor_sessions

__all__ = ["SnifferServer"]

#: How long shutdown waits for the stages, then for each session, to drain.
DRAIN_TIMEOUT_S = 5.0


class SnifferServer:
    """Long-running sniffer service: drive, broadcast, supervise, drain."""

    def __init__(self, config: ServeConfig):
        self.config = config.validated()
        self.bus = _current_bus()
        self.registry = _current_metrics()
        self.stop_event = threading.Event()
        self.drained = threading.Event()
        self.failed_stage: Optional[str] = None
        self._sessions: List[SubscriberSession] = []
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._publish_lock = threading.Lock()
        self.frames_published = 0
        self.records_published = 0
        self.ladder = DegradeLadder()
        self.service_plan = (
            named_service_profile(config.service_chaos, seed=config.seed)
            if config.service_chaos is not None
            else None
        )
        self.spool: Optional[SpoolWriter] = None
        if config.replay_path is not None:
            self.source = SpoolReplaySource(
                config.replay_path, self.publish, rate_fps=config.rate_fps
            )
        else:
            self.source = SimWorldSource(
                config, self.publish, service_plan=self.service_plan
            )
        self.supervisor = Supervisor(self.stop_event, on_fatal=self._on_fatal)
        self._listener: Optional[socket.socket] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Open the spool and socket, then spawn the supervised stages."""
        config = self.config
        if config.spool_path is not None and config.replay_path is None:
            self.spool = SpoolWriter(
                config.spool_path,
                meta={
                    "channel": config.channel,
                    "seed": config.seed,
                    "chaos": config.chaos,
                },
            )
        if config.socket_path is not None:
            self._open_listener(config.socket_path)
            self.supervisor.spawn("accept", self._accept_loop)
        self.supervisor.spawn("world", self.source.run)
        self.supervisor.spawn(
            "monitor",
            lambda stop: monitor_sessions(
                self.open_sessions,
                stop,
                stall_timeout_s=config.stall_timeout_s,
                idle_timeout_s=config.idle_timeout_s,
            ),
        )

    @property
    def source_finished(self) -> bool:
        """True once the world stage ended (budget spent or gave up)."""
        stage = self.supervisor.stages.get("world")
        return stage is not None and not stage.alive

    def request_shutdown(self) -> None:
        """Signal-handler-safe: ask every stage to stop."""
        self.stop_event.set()

    def _on_fatal(self, stage: str, _exc: BaseException) -> None:
        # A stage spent its restart budget: fail fast and loudly rather
        # than serving a half-dead pipeline.
        self.failed_stage = stage
        self.registry.counter("serve.stage.fatal_shutdowns").inc()
        self.request_shutdown()

    def shutdown(self) -> Dict[str, Any]:
        """Stop producing, drain every subscriber, finalise the spool.

        The clean-SIGTERM path: each session's queued records are
        delivered before its ``bye``.  Returns the final ledger.
        Idempotent.
        """
        self.request_shutdown()
        self.supervisor.join_all(DRAIN_TIMEOUT_S)
        sessions = self.open_sessions()
        note = notice_record("drain", produced=self.frames_published)
        for session in sessions:
            try:
                session.offer(note)
            except SessionOverflow:
                pass
        for session in sessions:
            session.drain(DRAIN_TIMEOUT_S)
        if self.spool is not None:
            self.spool.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            if self.config.socket_path and os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)
        self.drained.set()
        return self.ledger()

    # -- broadcast ----------------------------------------------------------
    def publish(self, record: Dict[str, Any]) -> None:
        """The single broadcast path every produced record flows through."""
        with self._publish_lock:
            is_frame = record.get("type") == "frame"
            if is_frame:
                self.frames_published += 1
                self.registry.counter("serve.frames.produced").inc()
                if self.spool is not None:
                    self.spool.append(record)
            self.records_published += 1
            sessions = self.open_sessions()
            pressure = max(
                (s.ring.fill_fraction for s in sessions), default=0.0
            )
            change = self.ladder.update(pressure)
            if change is not None:
                self._announce_shed_level(change, pressure, sessions)
            admitted, shed_class = self.ladder.admit(record)
            if not admitted:
                self.registry.counter(f"serve.shed.{shed_class}").inc()
                if is_frame:
                    for session in sessions:
                        session.frames_shed += 1
                return
            for session in sessions:
                self._offer_or_disconnect(session, record)

    def _offer_or_disconnect(self, session, record) -> None:
        """Offer under the session's policy; a timed-out ``block``
        admission means the subscriber is stalled — disconnect it."""
        try:
            session.offer(record)
        except SessionOverflow:
            self.registry.counter("serve.sessions.overflow").inc()
            self._emit_session_event(session, "overflow")
            session.close("stalled")

    def _announce_shed_level(
        self, level: int, pressure: float, sessions: List[SubscriberSession]
    ) -> None:
        name = SHED_LEVEL_NAMES[level]
        self.registry.counter("serve.shed.transitions").inc()
        self.registry.gauge("serve.shed.level").set(level)
        if self.bus.active:
            self.bus.emit(
                SERVE_SHED, level=level, shedding=name, pressure=round(pressure, 4)
            )
        note = notice_record(
            "shed-level", level=level, shedding=name, pressure=round(pressure, 4)
        )
        for session in sessions:
            self._offer_or_disconnect(session, note)

    # -- sessions -----------------------------------------------------------
    def open_sessions(self) -> List[SubscriberSession]:
        with self._sessions_lock:
            return [s for s in self._sessions if not s.closed]

    def all_sessions(self) -> List[SubscriberSession]:
        with self._sessions_lock:
            return list(self._sessions)

    def attach_session(
        self,
        sink: Sink,
        fmt: str = "jsonl",
        policy: Optional[str] = None,
        name: Optional[str] = None,
    ) -> SubscriberSession:
        """Create and start a subscriber on an arbitrary sink.

        The in-process subscription path: tests and embedded consumers
        (the live-sniffer example) use it directly; the socket handshake
        is a thin wrapper around it.  A session that attaches after the
        world stage has finished gets its ``bye`` at once: nothing more
        will be published to it.
        """
        config = self.config
        index = next(self._session_ids)
        if self.service_plan is not None and self.service_plan.wants_sink_faults():
            sink = ChaoticSink(sink, self.service_plan)
        session = SubscriberSession(
            name=name or f"sub-{index}",
            sink=sink,
            fmt=fmt,
            policy=policy or config.default_policy,
            queue_depth=config.queue_depth,
            heartbeat_s=config.heartbeat_s,
            stall_timeout_s=config.stall_timeout_s,
            on_closed=self._session_closed,
        )
        with self._sessions_lock:
            self._sessions.append(session)
        self.registry.counter("serve.sessions.connected").inc()
        self._emit_session_event(session, "connected")
        session.start()
        if self.source_finished:
            session.close("source-finished")
        return session

    def _session_closed(self, session: SubscriberSession, reason: str) -> None:
        self.registry.counter("serve.sessions.closed").inc()
        self._emit_session_event(session, "closed", reason=reason)

    def _emit_session_event(
        self, session: SubscriberSession, outcome: str, **fields
    ) -> None:
        if self.bus.active:
            self.bus.emit(
                SERVE_SESSION,
                session=session.name,
                policy=session.policy,
                outcome=outcome,
                **fields,
            )

    # -- socket transport ---------------------------------------------------
    def _open_listener(self, path: str) -> None:
        if os.path.exists(path):
            os.unlink(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener

    def _accept_loop(self, stop_event: threading.Event) -> None:
        listener = self._listener
        if listener is None:  # pragma: no cover - start() opens it
            return
        while not stop_event.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._handshake(conn)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                self.registry.counter("serve.sessions.bad_handshake").inc()
                try:
                    conn.close()
                except OSError:
                    pass
                # A malformed hello is the client's problem, not a stage
                # crash — log to the bus and keep accepting.
                if self.bus.active:
                    self.bus.emit(
                        SERVE_SESSION,
                        session="?",
                        policy="?",
                        outcome="bad-handshake",
                        error=f"{type(exc).__name__}: {exc}",
                    )

    def _handshake(self, conn: socket.socket) -> None:
        """Read one hello line: ``{"format": ..., "policy": ..., "name"}``."""
        conn.settimeout(2.0)
        chunks = bytearray()
        while not chunks.endswith(b"\n"):
            chunk = conn.recv(256)
            if not chunk:
                raise ValueError("client closed before hello")
            chunks.extend(chunk)
            if len(chunks) > 4096:
                raise ValueError("oversized hello")
        hello = json.loads(chunks.decode("utf-8"))
        self.attach_session(
            SocketSink(conn),
            fmt=hello.get("format", "jsonl"),
            policy=hello.get("policy"),
            name=hello.get("name"),
        )

    # -- ledger -------------------------------------------------------------
    def ledger(self) -> Dict[str, Any]:
        """The reconciliation the robustness tests (and ops) read."""
        sessions: Dict[str, Dict[str, Any]] = {}
        for session in self.all_sessions():
            entry = session.ledger()
            entry["shed"] = session.frames_shed
            entry["policy"] = session.policy
            entry["close_reason"] = session.close_reason
            sessions[session.name] = entry
        return {
            "produced": self.frames_published,
            "records_published": self.records_published,
            "shed": dict(self.ladder.shed),
            "shed_level": self.ladder.level,
            "spooled": self.spool.records_written if self.spool else 0,
            "stages": self.supervisor.stats(),
            "sessions": sessions,
        }
