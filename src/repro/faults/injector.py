"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

The injector sits at the two seams every impairment must pass through:

* **delivery scheduling** (:meth:`RfMedium.transmit`) — dropout windows
  suppress a delivery, duplication schedules it twice;
* **capture composition** (:meth:`RfMedium.compose_capture` → delivery) —
  truncation, sample drops and CFO steps/drift distort the capture a
  receiver actually demodulates.

Scripted collision bursts are injected as *real* transmissions from a
phantom jammer source, so they both corrupt overlapping captures and are
in flight for :meth:`RfMedium.channel_busy` — i.e. CSMA-CA clear-channel
assessment sees them and can defer.

Determinism contract (mirrors the medium's): scripted bursts draw from the
single ``default_rng(plan.seed)`` — they are scheduled once, at install, in
plan order, and emitted from one post, :attr:`FaultInjector.jammer_position`.
Everything evaluated *per delivery or capture* (duplication counters,
truncation/sample-drop cadence, gap positions) is keyed by the receiving
radio's name, and dropout windows and CFO steps by time, so each receiver
sees the same fault sequence regardless of how deliveries to *other*
receivers interleave with its own.  A run under a given (seed, plan,
per-receiver delivery sequence) is therefore bit-identical whether the
fleet is simulated densely, sharded, or with a different set of bystander
nodes attached.

A fleet split into independent sub-fleets installs one plan in each.
Burst ownership keeps the one burst stream whole: the sub-fleet that holds
every PAN the jammer post reaches (or the first, when it reaches none)
installs the plan as it is, and every other installs it without bursts.
The owner then draws and emits each burst exactly as the whole fleet does,
and no burst is counted twice.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.impairments import apply_frequency_offset
from repro.dsp.signal import IQSignal
from repro.faults.plan import (
    BURST_POWER_DBM,
    SAMPLE_DROPS_EVERY_NTH,
    DropoutWindow,
    FaultPlan,
)
from repro.obs import FAULT_INJECTED
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.medium import RfMedium, Transmission
    from repro.radio.transceiver import Transceiver

__all__ = ["FaultStats", "FaultInjector"]


@dataclass
class FaultStats:
    """What the injector actually did, for experiment reports and tests."""

    bursts_injected: int = field(default=0, init=False)
    deliveries_dropped: int = field(default=0, init=False)
    deliveries_duplicated: int = field(default=0, init=False)
    captures_truncated: int = field(default=0, init=False)
    captures_sample_dropped: int = field(default=0, init=False)
    captures_cfo_shifted: int = field(default=0, init=False)


class _JammerSource:
    """Phantom transmitter the scripted bursts are attributed to.

    Quacks enough like a :class:`Transceiver` for the medium's transmit
    path (``position`` for path loss, ``name`` for logs); never attached,
    so it is never a delivery target itself.
    """

    is_listening = False

    def __init__(self, name: str, position: Tuple[float, float]):
        self.name = name
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_JammerSource({self.name!r})"


class _DropoutIndex:
    """The plan's dropout windows, indexed for :meth:`covers` by bisection.

    The window starts in sorted order plus a running maximum of their
    ends.  A time is covered iff some window starting at or before it
    ends after it, i.e. iff the running maximum at its bisection point
    exceeds it — exact for overlapping windows too.
    """

    def __init__(self, windows: Sequence[DropoutWindow]):
        windows = sorted(windows, key=lambda w: w.start_s)
        self._starts = [w.start_s for w in windows]
        self._ends: List[float] = []
        reach = float("-inf")
        for window in windows:
            reach = max(reach, window.end_s)
            self._ends.append(reach)

    def covers(self, time: float) -> bool:
        """Whether any window covers *time*."""
        i = bisect.bisect_right(self._starts, time)
        return bool(i) and self._ends[i - 1] > time


class FaultInjector:
    """Applies a :class:`FaultPlan` to one :class:`RfMedium`."""

    #: Where scripted bursts are emitted from.
    jammer_position: Tuple[float, float] = (0.0, 0.0)

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.stats = FaultStats()
        self.medium: Optional["RfMedium"] = None
        self._delivery_counters: Dict[str, int] = {}
        self._capture_counters: Dict[str, int] = {}
        self._rx_rngs: Dict[str, np.random.Generator] = {}
        self._dropouts = _DropoutIndex(plan.dropouts)
        self.trace = _current_bus()
        self.metrics = _current_metrics()

    def _rx_rng(self, name: str) -> np.random.Generator:
        """Per-receiver fault stream, keyed by name (not delivery order)."""
        rng = self._rx_rngs.get(name)
        if rng is None:
            key = zlib.crc32(name.encode("utf-8"))
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.plan.seed, spawn_key=(key,))
            )
            self._rx_rngs[name] = rng
        return rng

    def _record(self, kind: str, **fields) -> None:
        """Count one applied impairment and trace it when anyone listens."""
        self.metrics.counter(f"fault.{kind}").inc()
        if self.trace.active:
            self.trace.emit(FAULT_INJECTED, time=self._now(), kind=kind, **fields)

    # -- installation --------------------------------------------------------
    def install(self, medium: "RfMedium") -> None:
        """Bind to *medium* and schedule every scripted burst."""
        if self.medium is not None:
            raise RuntimeError("fault injector is already installed")
        self.medium = medium
        for index, burst in enumerate(self.plan.bursts):
            source = _JammerSource(
                f"fault-burst-{index}", self.jammer_position
            )
            repeats = burst.count if burst.period_s is not None else 1
            for k in range(repeats):
                at = burst.start_s + (burst.period_s or 0.0) * k
                if at < medium.scheduler.now:
                    continue
                medium.scheduler.schedule_at(
                    at, lambda b=burst, s=source: self._emit_burst(b, s)
                )

    def _emit_burst(self, burst, source: _JammerSource) -> None:
        assert self.medium is not None
        num = max(1, int(round(burst.duration_s * self.medium.sample_rate)))
        samples = (
            self.rng.standard_normal(num) + 1j * self.rng.standard_normal(num)
        ) / np.sqrt(2.0)
        signal = IQSignal(samples, self.medium.sample_rate, burst.center_hz)
        self.medium.transmit(source, signal, BURST_POWER_DBM)
        self.stats.bursts_injected += 1
        self._record(
            "burst", source=source.name, center_hz=burst.center_hz
        )

    # -- delivery fate -------------------------------------------------------
    def delivery_count(self, radio: "Transceiver", tx: "Transmission") -> int:
        """How many times *tx* should be delivered to *radio* (0, 1 or 2)."""
        count = self._delivery_counters.get(radio.name, 0) + 1
        self._delivery_counters[radio.name] = count
        if self._dropouts.covers(tx.end_time):
            self.stats.deliveries_dropped += 1
            self._record("delivery_drop", rx=radio.name, tx_id=tx.identifier)
            return 0
        dup = self.plan.duplication
        if dup is not None and count % dup.every_nth == 0:
            self.stats.deliveries_duplicated += 1
            self._record("delivery_duplicate", rx=radio.name, tx_id=tx.identifier)
            return 2
        return 1

    # -- capture distortion --------------------------------------------------
    def _capture_faults(self, count: int):
        """The sample-drop and truncation plans that hit a receiver's
        *count*-th capture (``None`` where the plan spares it)."""
        drops, trunc = self.plan.sample_drops, self.plan.truncation
        if drops is not None and count % SAMPLE_DROPS_EVERY_NTH:
            drops = None
        if trunc is not None and count % trunc.every_nth:
            trunc = None
        return drops, trunc

    def checkpoint(self, radio: "Transceiver") -> Tuple[int, Optional[dict]]:
        """The state :meth:`transform_capture` advances for *radio*, for
        :meth:`rollback`."""
        rng = self._rx_rngs.get(radio.name)
        state = None if rng is None else rng.bit_generator.state
        return self._capture_counters.get(radio.name, 0), state

    def rollback(
        self, radio: "Transceiver", checkpoint: Tuple[int, Optional[dict]]
    ) -> None:
        """Undo the one :meth:`transform_capture` of *radio*'s capture made,
        at this same instant, since *checkpoint* was taken."""
        count, state = checkpoint
        drops, trunc = self._capture_faults(count + 1)
        self.stats.captures_sample_dropped -= drops is not None
        self.stats.captures_truncated -= trunc is not None
        self.stats.captures_cfo_shifted -= bool(self._cfo_at(self._now()))
        self._capture_counters[radio.name] = count
        if state is None:
            self._rx_rngs.pop(radio.name, None)
        else:
            self._rx_rngs[radio.name].bit_generator.state = state

    def transform_capture(
        self, radio: "Transceiver", capture: IQSignal, start_time: float
    ) -> IQSignal:
        """Apply the plan's capture-side impairments to one RX capture."""
        count = self._capture_counters.get(radio.name, 0) + 1
        self._capture_counters[radio.name] = count
        samples = capture.samples
        drops, trunc = self._capture_faults(count)
        if drops is not None:
            samples = samples.copy()
            rng = self._rx_rng(radio.name)
            for _ in range(drops.num_gaps):
                if samples.size <= drops.gap_samples:
                    samples[:] = 0.0
                    break
                start = int(
                    rng.integers(0, samples.size - drops.gap_samples)
                )
                samples[start : start + drops.gap_samples] = 0.0
            self.stats.captures_sample_dropped += 1
        if trunc is not None:
            keep = int(samples.size * trunc.keep_fraction)
            samples = samples.copy()
            samples[keep:] = 0.0
            self.stats.captures_truncated += 1
        distorted = IQSignal(
            samples, capture.sample_rate, capture.center_frequency
        )
        # Evaluate the oscillator state at delivery time: the capture window
        # starts a margin *before* the transmission, which would otherwise
        # miss a step scheduled at the very same instant.
        offset = self._cfo_at(self._now(start_time))
        if offset:
            distorted = apply_frequency_offset(distorted, offset)
            self.stats.captures_cfo_shifted += 1
        return distorted

    def _now(self, default: float = 0.0) -> float:
        return self.medium.scheduler.now if self.medium is not None else default

    def _cfo_at(self, time: float) -> float:
        offset = 0.0
        for step in self.plan.cfo_steps:
            if step.at_s <= time:
                offset = step.offset_hz
        offset += self.plan.cfo_drift_hz_per_s * time
        return offset
