"""Configuration for the streaming sniffer service (``repro serve``).

One frozen dataclass holds every tunable the daemon exposes: where the
Unix socket lives, how deep each subscriber's bounded ring is, which
backpressure policy new sessions default to, the supervision timeouts,
the overload-degradation thresholds, and the spool/replay paths.  Pure
data — the server, CLI and tests all construct it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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
    """Every knob of the sniffer service, with service-safe defaults."""

    # -- transport ---------------------------------------------------------
    socket_path: Optional[str] = None  # None: in-process sessions only
    #: Per-send socket timeout; a send that cannot complete within it is
    #: treated as a stalled subscriber.
    send_timeout_s: float = 2.0

    # -- world -------------------------------------------------------------
    channel: int = 14
    seed: int = 1
    #: Stop after this many produced frames; 0 streams until shutdown.
    frames: int = 0
    #: Wall-clock pacing in frames per second; 0 runs flat out.
    rate_fps: float = 0.0
    #: Simulated seconds the world advances per transmitted frame.
    sim_step_s: float = 2e-3
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

    # -- overload degradation ---------------------------------------------
    #: Ring fill fractions at which the ladder sheds trace records,
    #: then corrupt frames, then downsamples valid frames.
    shed_trace_at: float = 0.50
    shed_corrupt_at: float = 0.75
    downsample_at: float = 0.90
    #: Hysteresis subtracted from a threshold before stepping back down.
    shed_hysteresis: float = 0.15
    #: At the downsample level, 1 valid frame in this many is delivered.
    downsample_keep_every: int = 4

    # -- supervision -------------------------------------------------------
    max_stage_restarts: int = 5
    restart_backoff_s: float = 0.05
    restart_backoff_cap_s: float = 1.0

    # -- spool / replay ----------------------------------------------------
    spool_path: Optional[str] = None
    replay_path: Optional[str] = None
    drain_timeout_s: float = 5.0

    def validated(self) -> "ServeConfig":
        """Normalise and bounds-check; returns self (or a fixed copy)."""
        if self.default_policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.default_policy!r}; "
                f"choose from {', '.join(BACKPRESSURE_POLICIES)}"
            )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.downsample_keep_every < 1:
            raise ValueError("downsample_keep_every must be >= 1")
        if not (
            0.0 < self.shed_trace_at
            <= self.shed_corrupt_at
            <= self.downsample_at
            <= 1.0
        ):
            raise ValueError(
                "shed thresholds must satisfy "
                "0 < trace <= corrupt <= downsample <= 1"
            )
        if self.frames < 0:
            raise ValueError("frames must be >= 0")
        return self
