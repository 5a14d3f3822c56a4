"""Observability layer: trace events, metrics registry, stage timers.

The WazaBee stack reports *what happened to every frame* through two
complementary channels:

* a **trace-event bus** (:class:`TraceBus`) carrying typed, structured
  events — ``tx.frame``, ``medium.delivery``, ``rx.capture``,
  ``rx.decode``, ``rx.fcs``, ``mac.retry``, ``fault.injected``,
  ``attack.stage`` — stamped with simulated time, so a run's trace is
  deterministic under a fixed seed and zero-overhead when nobody listens;
* a **metrics registry** (:class:`MetricsRegistry`) of counters, gauges
  and wall-clock histogram timers, the aggregate view that Table III
  cells, the CLI (``--metrics``) and the perf reports embed.

Instrumented components resolve the *current* bus/registry at
construction; :func:`scoped` isolates one experiment cell or test.
``sim_now`` is the shared best-effort simulated-clock lookup used by
components whose API contract does not guarantee scheduler access.
"""

from __future__ import annotations

from repro.obs.bus import TraceBus, metrics, scoped, trace_bus
from repro.obs.events import (
    ATTACK_STAGE,
    EVENT_NAMES,
    FLEET_SAMPLE,
    FAULT_INJECTED,
    FIRMWARE_DROP,
    MAC_RETRY,
    MEDIUM_DELIVERY,
    RX_CAPTURE,
    RX_DECODE,
    RX_FCS,
    SERVE_SESSION,
    SERVE_SHED,
    SERVE_STAGE,
    TX_FRAME,
    TraceEvent,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.obs.recorder import JsonlTraceWriter, TraceRecorder, write_events_jsonl

__all__ = [
    "TraceBus",
    "TraceEvent",
    "TraceRecorder",
    "JsonlTraceWriter",
    "write_events_jsonl",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Timer",
    "trace_bus",
    "metrics",
    "scoped",
    "sim_now",
    "EVENT_NAMES",
    "TX_FRAME",
    "MEDIUM_DELIVERY",
    "RX_CAPTURE",
    "RX_DECODE",
    "RX_FCS",
    "MAC_RETRY",
    "FAULT_INJECTED",
    "ATTACK_STAGE",
    "FIRMWARE_DROP",
    "SERVE_SESSION",
    "SERVE_SHED",
    "SERVE_STAGE",
    "FLEET_SAMPLE",
]


def sim_now(radio) -> float:
    """Best-effort simulated time for a low-level radio.

    The :class:`~repro.core.radio_api.LowLevelRadio` protocol does not
    promise a clock, but every simulated chip carries a transceiver bound
    to the medium's scheduler.  Components instrumenting the protocol edge
    use this lookup; hardware-backed radios without one stamp 0.0.
    """
    transceiver = getattr(radio, "transceiver", None)
    if transceiver is None:
        return 0.0
    try:
        return transceiver.medium.scheduler.now
    except AttributeError:
        return 0.0
