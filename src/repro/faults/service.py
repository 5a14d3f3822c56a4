"""Service-level chaos: faults aimed at the sniffer daemon itself.

The radio chaos profiles (:mod:`repro.faults.plan`) degrade the *bench*;
these degrade the *service* — the failure modes a long-running sniffer
meets in the field:

* **subscriber stalls** — a client stops reading mid-stream, then
  resumes (filling its ring and exercising the backpressure policy);
* **socket errors** — a client's connection dies mid-write;
* **burst floods** — the radio world delivers frames far faster than
  the steady state (a jam of traffic the shed ladder must absorb);
* **pipeline crashes** — the world stage raises, exercising the
  supervisor's capped-backoff restart path.

Like the radio plans, a :class:`ServiceFaultPlan` is pure data and the
same plan yields the same fault schedule (counters, not wall-clock,
drive every trigger).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Tuple

from repro.obs import metrics as _current_metrics

__all__ = [
    "ServiceFaultPlan",
    "ChaoticSink",
    "named_service_profile",
    "service_profile_names",
]


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A complete, deterministic service-chaos description."""

    seed: int = 0
    name: str = "custom"
    # -- subscriber-side (applied by wrapping session sinks) ---------------
    #: After this many sink writes, the sink stalls once for
    #: ``stall_duration_s`` (0 disables).
    stall_after_writes: int = 0
    stall_duration_s: float = 0.0
    #: After this many sink writes, every further write raises OSError
    #: (0 disables).
    error_after_writes: int = 0
    # -- source-side (applied inside the world stage) ----------------------
    #: Every N produced frames, emit a burst of ``flood_factor`` frames
    #: back-to-back with no pacing (0 disables).
    flood_every_frames: int = 0
    flood_factor: int = 8
    #: Production indices at which the world stage raises once —
    #: the supervisor must restart it and resume the stream.
    crash_at_frames: Tuple[int, ...] = ()

    def wants_sink_faults(self) -> bool:
        """Whether every session's sink is wrapped in a :class:`ChaoticSink`."""
        return bool(self.stall_after_writes or self.error_after_writes)


class ChaoticSink:
    """Wrap a session sink with scripted stalls and write errors."""

    def __init__(self, inner, plan: ServiceFaultPlan):
        self._inner = inner
        self._plan = plan
        self._writes = 0
        self._stalled_once = False
        self._metrics = _current_metrics()

    def write(self, data: bytes) -> None:
        self._writes += 1
        plan = self._plan
        if (
            plan.stall_after_writes
            and not self._stalled_once
            and self._writes > plan.stall_after_writes
        ):
            self._stalled_once = True
            self._metrics.counter("faults.service.stalls").inc()
            _time.sleep(plan.stall_duration_s)
        if plan.error_after_writes and self._writes > plan.error_after_writes:
            self._metrics.counter("faults.service.socket_errors").inc()
            raise OSError("injected service socket error")
        self._inner.write(data)

    def close(self) -> None:
        self._inner.close()


# ---------------------------------------------------------------------------
# Named profiles
# ---------------------------------------------------------------------------


def _svc_stall(seed: int) -> ServiceFaultPlan:
    return ServiceFaultPlan(
        seed=seed,
        name="svc-stall",
        stall_after_writes=20,
        stall_duration_s=0.4,
    )


def _svc_socket(seed: int) -> ServiceFaultPlan:
    return ServiceFaultPlan(seed=seed, name="svc-socket", error_after_writes=25)


def _svc_flood(seed: int) -> ServiceFaultPlan:
    return ServiceFaultPlan(
        seed=seed, name="svc-flood", flood_every_frames=10, flood_factor=6
    )


def _svc_crash(seed: int) -> ServiceFaultPlan:
    return ServiceFaultPlan(seed=seed, name="svc-crash", crash_at_frames=(10, 30))


def _svc_storm(seed: int) -> ServiceFaultPlan:
    """Stalls + floods + a crash: the acceptance-criteria profile."""
    return ServiceFaultPlan(
        seed=seed,
        name="svc-storm",
        stall_after_writes=15,
        stall_duration_s=0.3,
        flood_every_frames=8,
        flood_factor=6,
        crash_at_frames=(20,),
    )


_SERVICE_PROFILES = {
    "svc-stall": _svc_stall,
    "svc-socket": _svc_socket,
    "svc-flood": _svc_flood,
    "svc-crash": _svc_crash,
    "svc-storm": _svc_storm,
}


def service_profile_names() -> Tuple[str, ...]:
    """Names accepted by :func:`named_service_profile` (serve ``--chaos``)."""
    return tuple(sorted(_SERVICE_PROFILES))


def named_service_profile(name: str, seed: int = 0) -> ServiceFaultPlan:
    try:
        factory = _SERVICE_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown service chaos profile {name!r}; choose from "
            f"{service_profile_names()}"
        ) from None
    return factory(seed)
