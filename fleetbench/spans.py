"""Per-layer self time, measured by wrapping each layer's entry points.

Tracing is installed only for ``--trace 1`` runs.  Each wrapped entry
point opens a span; a span's *self* time is its duration minus the time
of the spans nested inside it, and is charged to the span's layer.  The
scheduler's own span therefore holds event dispatch plus every callback
that is not itself wrapped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import repro.experiments.fleet as fleet_experiment
from repro.attacks.energy_depletion import FleetDepletionAttack
from repro.chips.ble_radio import BleRadioPeripheral
from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.mac import MacService
from repro.dsp.oqpsk import OqpskDemodulator
from repro.faults.injector import FaultInjector
from repro.radio import RfMedium, Scheduler, ShardedRfMedium, Transceiver
from repro.radio.shard import BufferPool
from repro.zigbee.network import SensorNode, XBeeNode

__all__ = ["LAYERS", "LayerTracer"]

#: (owner, attribute, layer).  Every span charged to a layer is listed here.
_SPANS: Tuple[Tuple[object, str, str], ...] = (
    (Scheduler, "run_until", "sched"),
    (fleet_experiment, "build_fleet", "build"),
    (RfMedium, "transmit", "radio.scan"),
    (RfMedium, "channel_busy", "radio.scan"),
    (ShardedRfMedium, "channel_busy", "radio.scan"),
    (RfMedium, "compose_capture", "radio.compose"),
    (Transceiver, "handle_capture", "radio.filter"),
    (Dot15d4Radio, "_on_capture", "phy.decode"),
    (OqpskDemodulator, "front_end", "phy.frontend"),
    (OqpskDemodulator, "receive_chips", "phy.sync"),
    (Dot15d4Radio, "_decode_chips", "phy.despread"),
    (Dot15d4Radio, "transmit_psdu", "phy.modulate"),
    (BleRadioPeripheral, "send_raw_bits", "phy.modulate"),
    (MacService, "_on_psdu", "mac"),
    (MacService, "_cca", "mac"),
    (MacService, "send_data", "mac"),
    (XBeeNode, "_on_data", "zigbee"),
    (SensorNode, "_report", "zigbee"),
    (FleetDepletionAttack, "_tick", "attack"),
    (FaultInjector, "delivery_count", "faults"),
    (FaultInjector, "transform_capture", "faults"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in _SPANS))


class LayerTracer:
    """Accumulates per-layer self time and interest-scan counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.scans = 0
        self.candidates = 0
        self.pools: List[BufferPool] = []
        self._open: List[float] = []  # child time of each open span

    def reset(self) -> None:
        self.self_s.clear()
        self.scans = 0
        self.candidates = 0
        self.pools = []

    def _timed(self, layer: str, fn: Callable) -> Callable:
        open_spans = self._open
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self_s[layer] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def _counted_scan(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def scan(medium, tx):
            found = fn(medium, tx)
            self.scans += 1
            self.candidates += len(found)
            return found

        return scan

    def _registered_pool(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def init(pool, *args, **kwargs):
            fn(pool, *args, **kwargs)
            self.pools.append(pool)

        return init

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every entry point for the duration of the block."""
        patches = [
            (owner, attr, self._timed(layer, getattr(owner, attr)))
            for owner, attr, layer in _SPANS
        ]
        patches += [
            (cls, "_delivery_candidates",
             self._counted_scan(cls.__dict__["_delivery_candidates"]))
            for cls in (RfMedium, ShardedRfMedium)
        ]
        patches.append(
            (BufferPool, "__init__", self._registered_pool(BufferPool.__init__))
        )
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
