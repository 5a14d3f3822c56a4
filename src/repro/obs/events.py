"""Typed trace events.

One :class:`TraceEvent` is one thing that happened somewhere in the stack,
stamped with *simulated* time (the scheduler clock) so a trace is fully
deterministic under a fixed seed — wall-clock never enters an event.  The
event vocabulary is deliberately small and layer-shaped: a frame's life is
``tx.frame → medium.delivery → rx.capture → rx.decode → rx.fcs``, with
``mac.retry``, ``fault.injected`` and ``attack.stage`` annotating the
link-layer, chaos and workflow dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "TraceEvent",
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
    "EVENT_NAMES",
]

#: A WazaBee/802.15.4 frame handed to a diverted radio for transmission.
TX_FRAME = "tx.frame"
#: The medium decided the fate of one scheduled delivery (scheduled,
#: delivered, suppressed by a fault, duplicated, or skipped at delivery
#: time because the receiver re-tuned / stopped listening).
MEDIUM_DELIVERY = "medium.delivery"
#: A receiver's sync correlator fired and produced a raw bit capture.
RX_CAPTURE = "rx.capture"
#: One WazaBee capture's decode outcome (ok / no-sfd / truncated).
RX_DECODE = "rx.decode"
#: FCS verdict for a successfully decoded frame.
RX_FCS = "rx.fcs"
#: An 802.15.4 MAC retransmission after an ACK timeout (the attack
#: firmware never waits for an ACK, so only ``MacService`` emits it).
MAC_RETRY = "mac.retry"
#: The fault injector applied one impairment.
FAULT_INJECTED = "fault.injected"
#: An attack workflow changed stage: Scenario A emits ``advertising``
#: once (it advertises until stopped); Scenario B emits each
#: :class:`~repro.attacks.scenario_b.AttackPhase` it enters.
ATTACK_STAGE = "attack.stage"
#: The firmware's bounded raw-frame ring evicted its oldest entry to make
#: room for a new decode (the ``raw_frames_dropped`` ledger's trace twin).
FIRMWARE_DROP = "firmware.drop"
#: A sniffer-service subscriber session changed state (connected,
#: disconnected, stalled, drained).
SERVE_SESSION = "serve.session"
#: The sniffer service moved between overload-degradation levels (sheds
#: trace records first, then corrupt frames, then downsamples).
SERVE_SHED = "serve.shed"
#: A supervised service pipeline stage crashed, restarted, or gave up.
SERVE_STAGE = "serve.stage"
#: One periodic fleet-campaign sample: alive-node count and aggregate
#: battery fraction at a point in simulated time.
FLEET_SAMPLE = "fleet.sample"

#: The closed vocabulary — JSONL consumers and the ledger tests key on it.
EVENT_NAMES = frozenset(
    {
        TX_FRAME,
        MEDIUM_DELIVERY,
        RX_CAPTURE,
        RX_DECODE,
        RX_FCS,
        MAC_RETRY,
        FAULT_INJECTED,
        ATTACK_STAGE,
        FIRMWARE_DROP,
        SERVE_SESSION,
        SERVE_SHED,
        SERVE_STAGE,
        FLEET_SAMPLE,
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``seq`` is the bus's emission counter — a total order over the trace
    that is deterministic under a fixed seed (the discrete-event scheduler
    fires callbacks in a reproducible order).  ``time`` is simulated
    seconds, 0.0 where a component has no scheduler in reach.
    """

    seq: int
    time: float
    name: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable form (the JSONL line layout)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "event": self.name,
        }
        record.update(self.fields)
        return record
