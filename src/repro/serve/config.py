"""Configuration for the streaming sniffer service (``repro serve``).

One frozen dataclass holds every setting a caller of the daemon sets:
where the Unix socket lives, the world it drives, how deep each
subscriber's bounded ring is, which backpressure policy new sessions
default to, the session timeouts, and the spool/replay paths.  Pure
data — the server, CLI and tests all construct it directly.  Tuning no
caller sets (shed thresholds, restart backoff, send timeout, simulated
step) is a constant of the module that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKPRESSURE_POLICIES", "ServeConfig"]

#: The three per-subscriber flow-control policies (ISSUE wording):
#:
#: ``block``
#:     The broadcaster waits (up to ``stall_timeout_s``) for the slow
#:     subscriber to free a slot — true backpressure; on timeout the
#:     session is declared stalled and disconnected.
#: ``drop-oldest``
#:     The ring evicts its oldest queued record to admit the new one;
#:     every eviction is counted against the session's drop ledger.
#: ``disconnect-slow``
#:     A full ring disconnects the subscriber immediately — protects the
#:     service (and the other subscribers) at the slow client's expense.
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "disconnect-slow")


@dataclass(frozen=True)
class ServeConfig:
    """Every setting of the sniffer service, with service-safe defaults."""

    # -- transport ---------------------------------------------------------
    socket_path: Optional[str] = None  # None: in-process sessions only

    # -- world -------------------------------------------------------------
    channel: int = 14
    seed: int = 1
    #: Stop after this many produced frames; 0 streams until shutdown.
    frames: int = 0
    #: Wall-clock pacing in frames per second; 0 runs flat out.
    rate_fps: float = 0.0
    #: Named radio chaos profile (repro.faults) degrading the bench.
    chaos: Optional[str] = None
    #: Named *service* chaos profile (repro.faults.service): subscriber
    #: stalls, socket errors, burst floods, pipeline crashes.
    service_chaos: Optional[str] = None
    #: Forward the world's trace events to subscribers as ``trace``
    #: records (the first records shed under pressure).
    forward_trace: bool = True

    # -- flow control ------------------------------------------------------
    queue_depth: int = 256
    default_policy: str = "drop-oldest"
    heartbeat_s: float = 0.5
    #: A session whose full ring makes no progress for this long is
    #: stalled (block policy waits at most this long before giving up).
    stall_timeout_s: float = 2.0
    #: A session that consumed nothing at all for this long is closed.
    idle_timeout_s: float = 30.0

    # -- spool / replay ----------------------------------------------------
    spool_path: Optional[str] = None
    replay_path: Optional[str] = None

    def validated(self) -> "ServeConfig":
        """Normalise and bounds-check; returns self (or a fixed copy)."""
        if self.default_policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.default_policy!r}; "
                f"choose from {', '.join(BACKPRESSURE_POLICIES)}"
            )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.frames < 0:
            raise ValueError("frames must be >= 0")
        return self
