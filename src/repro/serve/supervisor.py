"""Stage supervision: restarts, backoff, and session health monitoring.

The service pipeline is a handful of named *stages* (world source,
socket accept loop, session monitor), each a thread.  The supervisor
wraps every stage in a crash barrier: an escaping exception is counted,
emitted on the trace bus (``serve.stage``), and the stage is restarted
after a capped exponential backoff — until its restart budget is spent,
at which point the supervisor declares the stage fatal and asks the
server to shut down rather than limp along half-alive.

The monitor half watches subscriber sessions: a session whose ring is
full and which has made no progress past its stall timeout is stalled
(disconnected with ``stalled``); one that consumed nothing for the idle
timeout is closed as ``idle``.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Callable, Dict, List, Optional

from repro.obs import SERVE_STAGE, metrics as _current_metrics
from repro.obs import trace_bus as _current_bus

__all__ = ["StageStats", "SupervisedStage", "Supervisor", "monitor_sessions"]

#: Restarts a crashed stage gets before the supervisor declares it fatal.
MAX_STAGE_RESTARTS = 5
#: First restart delay; each further crash doubles it, up to the cap.
RESTART_BACKOFF_S = 0.05
RESTART_BACKOFF_CAP_S = 1.0
#: How often the session monitor looks for stalled and idle sessions.
MONITOR_INTERVAL_S = 0.1


class StageStats:
    """Crash/restart bookkeeping for one stage."""

    __slots__ = ("name", "starts", "crashes", "restarts", "gave_up", "last_error")

    def __init__(self, name: str):
        self.name = name
        self.starts = 0
        self.crashes = 0
        self.restarts = 0
        self.gave_up = False
        self.last_error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "starts": self.starts,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "last_error": self.last_error,
        }


class SupervisedStage:
    """One pipeline stage under a restart policy.

    *target* is a callable taking the stop event; returning normally
    ends the stage (no restart), raising crashes it (restart with
    backoff).  Restartable targets must be resumable: the world source,
    for instance, keeps its frame cursor on the object, so a restart
    continues where the crash interrupted.
    """

    def __init__(
        self,
        name: str,
        target: Callable[[threading.Event], None],
        stop_event: threading.Event,
        max_restarts: int = MAX_STAGE_RESTARTS,
        backoff_s: float = RESTART_BACKOFF_S,
        backoff_cap_s: float = RESTART_BACKOFF_CAP_S,
        on_fatal: Optional[Callable[[str, BaseException], None]] = None,
    ):
        self.stats = StageStats(name)
        self._target = target
        self._stop = stop_event
        self._max_restarts = max_restarts
        self._backoff_s = backoff_s
        self._backoff_cap_s = backoff_cap_s
        self._on_fatal = on_fatal
        self._metrics = _current_metrics()
        self._bus = _current_bus()
        self._thread = threading.Thread(
            target=self._run, name=f"serve-stage-{name}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout_s: Optional[float] = None) -> None:
        self._thread.join(timeout=timeout_s)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def _emit(self, outcome: str, **fields) -> None:
        self._metrics.counter(f"serve.stage.{outcome}").inc()
        if self._bus.active:
            self._bus.emit(
                SERVE_STAGE, stage=self.stats.name, outcome=outcome, **fields
            )

    def _run(self) -> None:
        while not self._stop.is_set():
            self.stats.starts += 1
            try:
                self._target(self._stop)
                return  # clean completion: the stage's work is done
            except Exception as exc:
                self.stats.crashes += 1
                self.stats.last_error = f"{type(exc).__name__}: {exc}"
                self._emit("crash", error=self.stats.last_error)
                if self.stats.crashes > self._max_restarts:
                    self.stats.gave_up = True
                    self._emit("fatal", crashes=self.stats.crashes)
                    if self._on_fatal is not None:
                        self._on_fatal(self.stats.name, exc)
                    return
                # Capped exponential backoff, responsive to shutdown.
                delay = min(
                    self._backoff_cap_s,
                    self._backoff_s * (2 ** (self.stats.crashes - 1)),
                )
                self.stats.restarts += 1
                self._emit("restart", backoff_s=delay)
                if self._stop.wait(delay):
                    return


class Supervisor:
    """Owns the stages and the session health monitor."""

    def __init__(
        self,
        stop_event: threading.Event,
        on_fatal: Optional[Callable[[str, BaseException], None]] = None,
    ):
        self._stop = stop_event
        self._on_fatal = on_fatal
        self.stages: Dict[str, SupervisedStage] = {}

    def spawn(
        self, name: str, target: Callable[[threading.Event], None]
    ) -> SupervisedStage:
        stage = SupervisedStage(name, target, self._stop, on_fatal=self._on_fatal)
        self.stages[name] = stage
        stage.start()
        return stage

    def join_all(self, timeout_s: float) -> None:
        deadline = _time.monotonic() + timeout_s
        for stage in self.stages.values():
            stage.join(max(0.0, deadline - _time.monotonic()))

    def stats(self) -> Dict[str, Dict[str, object]]:
        return {name: s.stats.as_dict() for name, s in self.stages.items()}


def monitor_sessions(
    sessions: Callable[[], List],
    stop_event: threading.Event,
    stall_timeout_s: float,
    idle_timeout_s: float,
) -> None:
    """Heartbeat loop disconnecting stalled and idle sessions.

    *sessions* is a callable returning the live session list (the server
    guards it with its own lock).  Designed to run as a supervised
    stage.
    """
    registry = _current_metrics()
    while not stop_event.wait(MONITOR_INTERVAL_S):
        now = _time.monotonic()
        for session in sessions():
            if session.closed:
                continue
            ring_full = session.ring.fill_fraction >= 1.0
            quiet_for = now - session.last_progress
            if ring_full and quiet_for > stall_timeout_s:
                registry.counter("serve.sessions.stalled").inc()
                session.request_disconnect("stalled")
                session.close("stalled")
            elif (
                idle_timeout_s > 0
                and session.records_delivered == 0
                and quiet_for > idle_timeout_s
            ):
                registry.counter("serve.sessions.idle_closed").inc()
                session.close("idle")
