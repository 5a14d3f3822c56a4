"""Shared RF medium with path loss, noise and interference.

The medium is where a BLE emission and a Zigbee receiver actually meet: a
transmission is recorded with its RF centre frequency and start time; every
attached, listening transceiver whose tuning overlaps gets a *capture* — the
superposition of all transmissions overlapping its window, mixed to the
receiver's centre frequency, scaled by log-distance path loss and log-normal
shadowing, plus interferer bursts and the thermal noise floor.

Power convention: a linear sample power of 1.0 corresponds to 0 dBm, so
``amplitude = 10^(dBm/20)``.

Delivery model: a transmission is delivered once, at its end of airtime,
to all of its receivers together, with exactly the outcome of delivering
to each in turn (:meth:`RfMedium._deliver`).

Determinism contract: every per-capture random draw (thermal noise,
shadowing, interferer bursts) comes from a *per-receiver* stream derived
from the medium seed and keyed by the receiver's name — never from the
order radios were attached or the order deliveries interleave across
receivers.  Two simulations that agree on (seed, per-receiver delivery
sequence) therefore produce byte-identical captures, which is what lets
the sharded medium (:mod:`repro.radio.shard`) prove decision-identity
against this dense reference implementation.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dsp.signal import IQSignal
from repro.obs import MEDIUM_DELIVERY
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.radio.interference import WifiInterferer
from repro.radio.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.radio.transceiver import StackedReceiver, Transceiver

__all__ = ["PropagationModel", "Transmission", "RfMedium"]

Position = Tuple[float, float]


@dataclass
class PropagationModel:
    """Log-distance path loss with optional log-normal shadowing.

    ``reference_loss_db`` is the loss at ``reference_distance_m``;
    ``exponent`` is the decay exponent (2 free space, 2.5–3 indoors);
    ``shadowing_sigma_db`` adds a per-capture Gaussian term, the simulator's
    stand-in for multipath fading and people walking through the lab.
    """

    reference_loss_db: float = 40.0
    reference_distance_m: float = 1.0
    exponent: float = 2.5
    shadowing_sigma_db: float = 0.0

    def path_gain_db(
        self, a: Position, b: Position, rng: Optional[np.random.Generator] = None
    ) -> float:
        distance = math.dist(a, b)
        distance = max(distance, self.reference_distance_m / 10.0)
        loss = self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance_m
        )
        if self.shadowing_sigma_db > 0.0 and rng is not None:
            loss += float(rng.normal(0.0, self.shadowing_sigma_db))
        return -loss


@dataclass
class Transmission:
    """A signal on the air.

    ``origin`` is the emitter's position *at transmit time*: path loss and
    range gating are evaluated against where the energy actually left the
    antenna, so a source that moves while its frame is still in flight
    cannot retroactively change the physics of an emission already made.
    """

    source: "Transceiver"
    signal: IQSignal
    start_time: float
    power_dbm: float
    identifier: int
    origin: Position = (0.0, 0.0)

    @property
    def end_time(self) -> float:
        return self.start_time + self.signal.duration


@dataclass(eq=False)
class _Row:
    """One delivery of a transmission, from composition to hand-out.

    ``capture`` is ``None`` for a delivery composed only at its hand-out;
    otherwise ``inputs``, ``stream`` and ``fault`` are what composing it
    read and advanced, and ``decoded`` is its stacked receiver's result.
    """

    radio: "Transceiver"
    capture: Optional[IQSignal] = None
    inputs: tuple = ()
    stream: Optional[dict] = None
    fault: Optional[tuple] = None
    receiver: Optional["StackedReceiver"] = None
    key: Hashable = None
    decoded: object = None


class RfMedium:
    """The shared channel connecting every simulated radio.

    ``range_cutoff_m`` (optional) bounds the interaction radius: a
    transmission is neither delivered to, nor mixed into the capture of, a
    receiver farther than the cutoff from its origin, and CSMA-CA CCA does
    not see it.  ``None`` (the default) keeps the historical unbounded
    behaviour.  The cutoff is the *semantic contract* the spatially
    partitioned :class:`~repro.radio.shard.ShardedRfMedium` implements with
    an interest-managed index — dense-with-cutoff is its O(N·M) reference.
    """

    #: Margin added to half the receiver bandwidth when deciding whether a
    #: transmission is deliverable (beyond it, the channel filter would bury
    #: the signal anyway).  Roughly the occupied bandwidth of the signals
    #: simulated here.
    DELIVERY_MARGIN_HZ = 3e6

    #: How far behind the current time a finished transmission is kept
    #: before being pruned from the superposition list.  It must exceed the
    #: longest capture window (frame airtime + capture margins) or a late
    #: delivery would compose against a half-forgotten past; anything much
    #: larger only wastes memory on a busy medium.
    DEFAULT_PRUNE_HORIZON_S = 0.01

    def __init__(
        self,
        scheduler: Scheduler,
        sample_rate: float = 16e6,
        noise_floor_dbm: float = -100.0,
        propagation: Optional[PropagationModel] = None,
        interferers: Sequence[WifiInterferer] = (),
        rng: Optional[np.random.Generator] = None,
        capture_margin_s: float = 16e-6,
        seed: int = 0,
        prune_horizon_s: float = DEFAULT_PRUNE_HORIZON_S,
        fault_injector: Optional["FaultInjector"] = None,
        range_cutoff_m: Optional[float] = None,
    ):
        self.scheduler = scheduler
        self.sample_rate = sample_rate
        self.noise_floor_dbm = noise_floor_dbm
        # Observability: bind to the bus/registry scoped at construction
        # time, so one experiment cell traces only its own medium.
        self.trace = _current_bus()
        self.metrics = _current_metrics()
        self.propagation = propagation or PropagationModel()
        self.interferers = list(interferers)
        self.seed = seed
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.capture_margin_s = capture_margin_s
        if prune_horizon_s <= 0.0:
            raise ValueError("prune_horizon_s must be positive")
        self.prune_horizon_s = prune_horizon_s
        if range_cutoff_m is not None and range_cutoff_m <= 0.0:
            raise ValueError("range_cutoff_m must be positive")
        self.range_cutoff_m = range_cutoff_m
        # Attached radios by name, in attach order.
        self._radios: Dict[str, "Transceiver"] = {}
        self._transmissions: List[Transmission] = []
        self._next_id = 0
        # Per-receiver random streams, keyed by radio *name* (not insertion
        # order): each receiver's noise/shadowing/interference draws advance
        # only with its own captures.  A stream is derived at its first
        # composed capture and kept across detach + re-attach, which
        # continues it rather than rewinding it.
        self._rx_streams: dict = {}
        # Capture-composition scratch: mixed-signal memo (a transmission is
        # mixed to a given receiver tuning once, not once per delivery) and
        # reusable noise buffers (grow-only, so steady-state captures do no
        # float allocation for the thermal floor).
        self._mixed_cache: dict = {}
        self._noise_re = np.empty(0)
        self._noise_im = np.empty(0)
        self.fault_injector: Optional["FaultInjector"] = None
        if fault_injector is not None:
            self.install_fault_injector(fault_injector)

    def derive_rng(self, label: str) -> np.random.Generator:
        """A deterministic per-device generator tied to the medium's seed.

        Devices that are not handed an explicit ``rng`` draw theirs from
        here, keyed by name, so a whole experiment is reproducible from the
        single medium seed.
        """
        key = zlib.crc32(label.encode("utf-8"))
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        )

    def install_fault_injector(self, injector: "FaultInjector") -> None:
        """Attach a fault injector; scripted bursts are scheduled now."""
        injector.install(self)
        self.fault_injector = injector

    # -- attachment ---------------------------------------------------------
    def attach(self, radio: "Transceiver") -> None:
        """Connect *radio*; re-attaching an attached radio does nothing.

        Raises :class:`ValueError` when another attached radio has the same
        name: per-receiver random streams are keyed by name, so the two
        would draw from one stream.
        """
        attached = self._radios.get(radio.name)
        if attached is radio:
            return
        if attached is not None:
            raise ValueError(f"a radio named {radio.name!r} is already attached")
        self._radios[radio.name] = radio

    def detach(self, radio: "Transceiver") -> None:
        if self._radios.get(radio.name) is radio:
            del self._radios[radio.name]

    def radio_moved(self, radio: "Transceiver") -> None:
        """Notification hook: *radio*'s position changed.

        The dense medium scans every radio on each transmit, so position is
        always read fresh — nothing to update.  The sharded medium overrides
        this to migrate the radio between grid cells.
        """

    def radio_retuned(self, radio: "Transceiver") -> None:
        """Notification hook: *radio*'s tuning changed (see radio_moved)."""

    def _rx_stream(self, radio: "Transceiver") -> np.random.Generator:
        stream = self._rx_streams.get(radio.name)
        if stream is None:
            stream = self.derive_rng(f"medium.rx:{radio.name}")
            self._rx_streams[radio.name] = stream
        return stream

    # -- transmission ---------------------------------------------------------
    def transmit(
        self, source: "Transceiver", signal: IQSignal, power_dbm: float
    ) -> Transmission:
        """Put *signal* on the air now; schedule its delivery at its end."""
        if signal.sample_rate != self.sample_rate:
            raise ValueError(
                f"signal sample rate {signal.sample_rate} differs from medium "
                f"rate {self.sample_rate}"
            )
        self._prune(self.scheduler.now - self.prune_horizon_s)
        tx = Transmission(
            source=source,
            signal=signal,
            start_time=self.scheduler.now,
            power_dbm=power_dbm,
            identifier=self._next_id,
            origin=tuple(source.position),
        )
        self._next_id += 1
        self._transmissions.append(tx)
        self._index_transmission(tx)
        self.metrics.counter("medium.transmissions").inc()
        receivers: List["Transceiver"] = []
        for radio in self._delivery_candidates(tx):
            if radio is source or not self._hears(radio, tx):
                continue
            deliveries = 1
            if self.fault_injector is not None:
                deliveries = self.fault_injector.delivery_count(radio, tx)
            if deliveries == 0:
                self.metrics.counter("medium.deliveries.suppressed").inc()
                self._trace_delivery(radio, tx, "suppressed")
                continue
            if deliveries > 1:
                self.metrics.counter("medium.deliveries.duplicated").inc()
            for _ in range(deliveries):
                self.metrics.counter("medium.deliveries.scheduled").inc()
                self._trace_delivery(radio, tx, "scheduled")
                receivers.append(radio)
        if receivers:
            self.scheduler.schedule_at(
                tx.end_time, lambda: self._deliver(tx, receivers)
            )
        return tx

    def _delivery_candidates(self, tx: Transmission) -> Iterable["Transceiver"]:
        """Radios to consider delivering *tx* to, in attach order.

        The dense medium scans everything; the sharded medium narrows the
        scan through its (cell, channel) interest sets.  Implementations
        must preserve attach order so the scheduler's event sequence — and
        therefore every downstream tie-break — is identical across them.
        """
        return self._radios.values()

    def _index_transmission(self, tx: Transmission) -> None:
        """Hook: a transmission entered the superposition list."""

    def _trace_delivery(
        self, radio: "Transceiver", tx: Transmission, status: str
    ) -> None:
        if self.trace.active:
            self.trace.emit(
                MEDIUM_DELIVERY,
                time=self.scheduler.now,
                status=status,
                rx=radio.name,
                tx=getattr(tx.source, "name", "?"),
                tx_id=tx.identifier,
            )

    def _hears(self, radio: "Transceiver", tx: Transmission) -> bool:
        """Whether *radio* receives *tx* in its current state."""
        return (
            radio.is_listening
            and self._in_band(radio, tx.signal.center_frequency)
            and self._within_range(tx, radio)
        )

    def _mixes(
        self,
        radio: "Transceiver",
        tx: Transmission,
        start_time: float,
        end_time: float,
    ) -> bool:
        """Whether *tx* is part of *radio*'s capture of a time window
        (the test :meth:`compose_capture` applies to each candidate)."""
        return (
            tx.end_time > start_time
            and tx.start_time < end_time
            and tx.source is not radio
            and self._in_band(radio, tx.signal.center_frequency)
            and self._within_range(tx, radio)
        )

    def _in_band(self, radio: "Transceiver", center_frequency: float) -> bool:
        limit = radio.bandwidth_hz / 2.0 + self.DELIVERY_MARGIN_HZ
        return abs(radio.tuned_hz - center_frequency) <= limit

    def _within_range(self, tx: Transmission, radio: "Transceiver") -> bool:
        if self.range_cutoff_m is None:
            return True
        return math.dist(tx.origin, radio.position) <= self.range_cutoff_m

    # -- delivery ---------------------------------------------------------------
    def _deliver(self, tx: Transmission, receivers: List["Transceiver"]) -> None:
        """Deliver *tx* to each of *receivers* (attach order, repeats kept).

        1. Every receiver that decodes in stacks and hears *tx* now has
           its capture composed into a row of one pooled ``(K, N)`` block
           and fault-transformed.
        2. The rows are channel-filtered, and
        3. decoded one stack per (decoder configuration, row length).
        4. Each delivery is handed out in order, as delivering to each
           receiver in turn would: a row whose composition still holds
           goes to its receiver, with its ``delivered`` trace event.

        A row stops holding when an earlier hand-out changed it: the
        receiver no longer hears *tx*, was re-tuned or moved, or a new
        transmission falls into its capture.  It is then rolled back — its
        noise stream and fault state restored to before its composition —
        and delivered on the one-row path, as is every other delivery (to
        a receiver that does not stack, a repeat, or one deaf at step 1)
        at its turn.  Events the hand-outs schedule for now run after the
        last of them.
        """
        start = tx.start_time - self.capture_margin_s
        end = tx.end_time + self.capture_margin_s
        rows: List[_Row] = []
        stacked: List[_Row] = []
        seen = set()
        for radio in receivers:
            row = _Row(radio)
            rows.append(row)
            receiver = radio.stacked_receiver
            if receiver is None or radio in seen or not self._hears(radio, tx):
                continue
            seen.add(radio)
            row.receiver, row.key = receiver, receiver.stack_key
            stacked.append(row)
        block = None
        if stacked:
            num = self._window_samples(start, end)
            block = self._acquire_capture_buffer((len(stacked), num))
            for row, out in zip(stacked, block):
                self._compose_row(row, start, end, out)
            self._decode_stacked(stacked)
        first_new = self._next_id
        try:
            for row in rows:
                if row.capture is not None and self._holds(
                    row, tx, start, end, first_new
                ):
                    self._hand_out(row, tx)
                    continue
                if row.capture is not None:
                    self._rollback(row)
                self._deliver_row(row.radio, tx, start, end)
        finally:
            # Receivers filter into fresh arrays, so the block is free.
            if block is not None:
                self._release_capture_buffer(block)

    @staticmethod
    def _composition_inputs(radio: "Transceiver") -> tuple:
        """The receiver state a capture's composition reads."""
        return (
            radio.tuned_hz,
            radio.position,
            radio.bandwidth_hz,
            radio.noise_figure_db,
        )

    def _compose_row(
        self, row: _Row, start: float, end: float, out: np.ndarray
    ) -> None:
        radio = row.radio
        row.inputs = self._composition_inputs(radio)
        row.stream = self._rx_stream(radio).bit_generator.state
        capture = self.compose_capture(radio, start, end, out=out)
        if self.fault_injector is not None:
            row.fault = self.fault_injector.checkpoint(radio)
            capture = self.fault_injector.transform_capture(radio, capture, start)
        row.capture = capture

    @staticmethod
    def _decode_stacked(rows: List[_Row]) -> None:
        """Filter and decode the rows, one stack per (decoder
        configuration, row length, receive filter).  A stack is filtered
        by its first radio's ``filter_samples``, the entry the one-row
        path's ``handle_capture`` uses, so both decode at one
        precision."""
        groups: Dict[tuple, List[_Row]] = {}
        for row in rows:
            taps = row.radio.filter_taps
            key = (row.key, row.capture.samples.shape, id(taps))
            groups.setdefault(key, []).append(row)
        for members in groups.values():
            batch = members[0].radio.filter_samples(
                [row.capture.samples for row in members]
            )
            decoded = members[0].receiver.decode_rows(batch)
            for row, result in zip(members, decoded):
                row.decoded = result

    def _holds(
        self,
        row: _Row,
        tx: Transmission,
        start: float,
        end: float,
        first_new: int,
    ) -> bool:
        """Whether *row*'s capture is still the one its receiver would get
        now; transmissions from *first_new* on started after composition."""
        radio = row.radio
        if not self._hears(radio, tx):
            return False
        if self._composition_inputs(radio) != row.inputs:
            return False
        added = self._next_id - first_new
        return not added or not any(
            self._mixes(radio, new, start, end)
            for new in self._transmissions[-added:]
        )

    def _rollback(self, row: _Row) -> None:
        """Undo composing *row*: its receiver's streams rewind."""
        self._rx_stream(row.radio).bit_generator.state = row.stream
        if row.fault is not None:
            self.fault_injector.rollback(row.radio, row.fault)

    def _hand_out(self, row: _Row, tx: Transmission) -> None:
        radio = row.radio
        self.metrics.counter("medium.deliveries.delivered").inc()
        self._trace_delivery(radio, tx, "delivered")
        receiver = radio.stacked_receiver
        if receiver is row.receiver and receiver.stack_key == row.key:
            receiver.take_row(row.decoded, row.capture.duration)
        else:
            radio.handle_capture(row.capture, tx)

    def _deliver_row(
        self, radio: "Transceiver", tx: Transmission, start: float, end: float
    ) -> None:
        """The one-row path: re-check, compose, transform, hand out."""
        if not self._hears(radio, tx):
            self.metrics.counter("medium.deliveries.skipped").inc()
            self._trace_delivery(radio, tx, "skipped")
            return
        capture = self.compose_capture(radio, start, end)
        raw = capture.samples
        if self.fault_injector is not None:
            capture = self.fault_injector.transform_capture(radio, capture, start)
        self.metrics.counter("medium.deliveries.delivered").inc()
        self._trace_delivery(radio, tx, "delivered")
        try:
            radio.handle_capture(capture, tx)
        finally:
            # The transceiver filters into a fresh array, so the raw
            # composition buffer can be recycled (pool-backed media).
            self._release_capture_buffer(raw)

    # -- capture composition ----------------------------------------------------
    def _window_samples(self, start_time: float, end_time: float) -> int:
        return max(1, int(round((end_time - start_time) * self.sample_rate)))

    def compose_capture(
        self,
        radio: "Transceiver",
        start_time: float,
        end_time: float,
        out: Optional[np.ndarray] = None,
    ) -> IQSignal:
        """Superpose everything a receiver hears in a time window.

        *out* (a zeroed array of the window's length, such as a row of a
        stack) receives the capture; by default a buffer is acquired.
        """
        num = self._window_samples(start_time, end_time)
        total = self._acquire_capture_buffer(num) if out is None else out
        rng = self._rx_stream(radio)
        for tx in self._compose_candidates(radio, start_time, end_time):
            # _mixes, inlined: this loop runs for every candidate of every
            # capture.
            if tx.end_time <= start_time or tx.start_time >= end_time:
                continue
            if tx.source is radio:
                continue
            if not self._in_band(radio, tx.signal.center_frequency):
                continue
            if not self._within_range(tx, radio):
                continue
            gain_db = tx.power_dbm + self.propagation.path_gain_db(
                tx.origin, radio.position, rng=rng
            )
            amplitude = 10.0 ** (gain_db / 20.0)
            mixed = self._mixed_samples(tx, radio.tuned_hz)
            offset = int(round((tx.start_time - start_time) * self.sample_rate))
            self._add_at(total, mixed, offset, scale=amplitude)
        for interferer in self.interferers:
            burst = interferer.contribution(
                rx_center_hz=radio.tuned_hz,
                rx_bandwidth_hz=radio.bandwidth_hz,
                num_samples=num,
                sample_rate=self.sample_rate,
                rng=rng,
            )
            total += burst.samples
        noise_power = 10.0 ** (
            (self.noise_floor_dbm + radio.noise_figure_db) / 10.0
        )
        scale = np.sqrt(noise_power / 2.0)
        if self._noise_re.size < num:
            self._noise_re = np.empty(num)
            self._noise_im = np.empty(num)
        re, im = self._noise_re[:num], self._noise_im[:num]
        # Same generator stream (and therefore bit-identical captures) as
        # drawing two fresh arrays — ``out=`` only skips the allocations.
        rng.standard_normal(out=re)
        rng.standard_normal(out=im)
        total.real += scale * re
        total.imag += scale * im
        return IQSignal(total, self.sample_rate, radio.tuned_hz)

    def _compose_candidates(
        self, radio: "Transceiver", start_time: float, end_time: float
    ) -> Iterable[Transmission]:
        """Transmissions to consider mixing, in identifier order.

        Identifier order fixes the floating-point summation order, which is
        part of the byte-identity contract between implementations.
        """
        return self._transmissions

    def _acquire_capture_buffer(
        self, shape: Union[int, Tuple[int, ...]]
    ) -> np.ndarray:
        """A zeroed complex buffer: one capture or a stack (pool hook)."""
        return np.zeros(shape, dtype=np.complex128)

    def _release_capture_buffer(self, samples: np.ndarray) -> None:
        """Return a composition buffer after its deliveries completed."""

    def _mixed_samples(self, tx: Transmission, tuned_hz: float) -> np.ndarray:
        """*tx*'s samples mixed to a receiver tuning, memoised per pairing.

        The cached array is shared between deliveries; callers must treat
        it as read-only (``_add_at`` only reads it).
        """
        key = (tx.identifier, tuned_hz)
        samples = self._mixed_cache.get(key)
        if samples is None:
            samples = tx.signal.mixed_to(tuned_hz).samples
            self._mixed_cache[key] = samples
        return samples

    @staticmethod
    def _add_at(
        buffer: np.ndarray,
        samples: np.ndarray,
        offset: int,
        scale: float = 1.0,
    ) -> None:
        if offset >= buffer.size or offset + samples.size <= 0:
            return
        src_start = max(0, -offset)
        dst_start = max(0, offset)
        length = min(samples.size - src_start, buffer.size - dst_start)
        if length > 0:
            buffer[dst_start : dst_start + length] += scale * samples[
                src_start : src_start + length
            ]

    def _prune(self, before: float) -> None:
        kept = [tx for tx in self._transmissions if tx.end_time >= before]
        if len(kept) != len(self._transmissions):
            live = {tx.identifier for tx in kept}
            self._mixed_cache = {
                key: val
                for key, val in self._mixed_cache.items()
                if key[0] in live
            }
            self._prune_index(live)
        self._transmissions = kept

    def _prune_index(self, live: set) -> None:
        """Hook: transmissions outside *live* left the superposition list."""

    # -- introspection ---------------------------------------------------------
    @property
    def active_transmissions(self) -> List[Transmission]:
        now = self.scheduler.now
        return [
            tx
            for tx in self._transmissions
            if tx.start_time <= now <= tx.end_time
        ]

    def channel_busy(self, radio: "Transceiver") -> bool:
        """Clear-channel assessment for *radio*'s current tuning.

        True when any in-flight transmission from another source overlaps
        the radio's receive band (within the range cutoff, when one is
        configured) — the energy-detect CCA that backs the MAC's unslotted
        CSMA-CA.
        """
        for tx in self.active_transmissions:
            if tx.source is radio:
                continue
            if not self._in_band(radio, tx.signal.center_frequency):
                continue
            if not self._within_range(tx, radio):
                continue
            return True
        return False
