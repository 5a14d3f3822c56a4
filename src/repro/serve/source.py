"""Frame sources: the continuously-driven radio world, and spool replay.

:class:`SimWorldSource` is the live producer.  It stands up the paper's
bench (testbed + reference 802.15.4 transmitter + a WazaBee-diverted BLE
chip running the sniffer firmware), then drives the discrete-event
scheduler in small simulated steps, turning every decode the firmware's
raw tap sees into a ``frame`` record.  It is written to be *resumable*:
the production cursor lives on the object, so when the supervisor
restarts a crashed world stage the stream continues where it stopped —
no frame is produced twice.

:class:`SpoolReplaySource` feeds a recorded spool back through the same
``publish`` path verbatim, which is what makes ``repro serve --replay``
byte-for-byte faithful to the original run.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.faults import ServiceFaultPlan, named_profile
from repro.obs import scoped
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.serve.codec import frame_record, trace_record
from repro.serve.config import ServeConfig
from repro.serve.spool import SpoolReader

__all__ = ["SimWorldSource", "SpoolReplaySource"]

Publish = Callable[[Dict[str, Any]], None]

#: Simulated seconds the world advances per transmitted frame.
SIM_STEP_S = 2e-3


class SimWorldSource:
    """Drive the radio bench continuously; resumable across restarts."""

    def __init__(
        self,
        config: ServeConfig,
        publish: Publish,
        service_plan: Optional[ServiceFaultPlan] = None,
    ):
        self.config = config
        self.publish = publish
        self.service_plan = service_plan
        #: Next production index — the resume cursor.  Restarts continue
        #: from here instead of replaying what was already published.
        self.next_index = 0
        self.frames_produced = 0
        self._crashes_fired: set = set()
        self._world = None

    # -- world construction -------------------------------------------------
    def _build_world(self):
        """Stand up (or re-stand) the bench; called on start and restart."""
        from repro.chips import Nrf52832
        from repro.experiments.environment import build_bench

        config = self.config
        fault_plan = (
            named_profile(config.chaos, channel=config.channel, seed=config.seed)
            if config.chaos is not None
            else None
        )
        self._world = build_bench(
            Nrf52832,
            "rx",
            config.channel,
            seed=config.seed,
            fault_plan=fault_plan,
            raw_tap=self._on_decode,
        )
        return self._world

    def _on_decode(self, decoded) -> None:
        record = frame_record(
            seq=self.frames_produced,
            time=self._world.testbed.scheduler.now,
            channel=self.config.channel,
            psdu=decoded.psdu,
            fcs_ok=decoded.fcs_ok,
            mean_distance=decoded.mean_distance,
        )
        self.frames_produced += 1
        self.publish(record)

    # -- the supervised stage target ----------------------------------------
    def run(self, stop_event: threading.Event) -> None:
        """Produce frames until the budget is spent or shutdown is asked.

        Runs inside an observability scope of its own so the world's
        components bind the service's bus/registry pair; the world's
        trace events are forwarded to subscribers as ``trace`` records
        when the config asks for them.
        """
        config = self.config
        bus, registry = _current_bus(), _current_metrics()
        with scoped(bus, registry):
            bench = self._build_world()
            forward = None
            if config.forward_trace:

                def forward(event) -> None:
                    # serve.* events describe the service itself; looping
                    # them back through the stream would self-amplify
                    # under load (each shed announcement a new record).
                    if not event.name.startswith("serve."):
                        self.publish(trace_record(event.as_dict()))

                bus.subscribe(forward)
            try:
                self._drive(bench, stop_event)
            finally:
                if forward is not None:
                    bus.unsubscribe(forward)

    def _drive(self, bench, stop_event: threading.Event) -> None:
        from repro.experiments.environment import counter_frame

        config = self.config
        plan = self.service_plan
        registry = _current_metrics()
        produced_metric = registry.counter("serve.frames.transmitted")
        while not stop_event.is_set():
            if config.frames and self.next_index >= config.frames:
                return
            index = self.next_index
            if plan is not None:
                # "At or past": a burst can jump the cursor over an exact
                # crash index, and the crash must still fire.
                due = [
                    c
                    for c in plan.crash_at_frames
                    if c <= index and c not in self._crashes_fired
                ]
                if due:
                    self._crashes_fired.add(due[0])
                    registry.counter("faults.service.crashes").inc()
                    raise RuntimeError(
                        f"injected world-stage crash at frame {index}"
                    )
            burst = 1
            if (
                plan is not None
                and plan.flood_every_frames
                and index > 0
                and index % plan.flood_every_frames == 0
            ):
                burst = max(1, plan.flood_factor)
                registry.counter("faults.service.floods").inc()
            # Wall-clock pacing only outside bursts: floods are the
            # "traffic arrived faster than you planned" fault.  Pace
            # *before* emitting so a subscriber that connects the moment
            # the socket appears still sees the opening frames.
            if config.rate_fps > 0 and burst == 1:
                if stop_event.wait(1.0 / config.rate_fps):
                    return
            for _ in range(burst):
                if stop_event.is_set():
                    return
                if config.frames and self.next_index >= config.frames:
                    return
                bench.reference.transmit_frame(counter_frame(self.next_index))
                bench.testbed.scheduler.run(SIM_STEP_S)
                produced_metric.inc()
                self.next_index += 1


class SpoolReplaySource:
    """Publish a recorded spool's records, verbatim and in order."""

    def __init__(
        self,
        path: str,
        publish: Publish,
        rate_fps: float = 0.0,
    ):
        self.reader = SpoolReader(path)
        self.publish = publish
        self.rate_fps = rate_fps
        self.next_index = 0
        self.frames_produced = 0

    def run(self, stop_event: threading.Event) -> None:
        records = list(self.reader.records())
        while self.next_index < len(records):
            if stop_event.is_set():
                return
            record = records[self.next_index]
            # Pace *before* each frame so a subscriber that connects the
            # moment the socket appears still gets record 0 — emitting
            # first would race every client out of the opening frames.
            if record.get("type") == "frame" and self.rate_fps > 0:
                if stop_event.wait(1.0 / self.rate_fps):
                    return
            self.next_index += 1
            self.publish(record)
            if record.get("type") == "frame":
                self.frames_produced += 1
