"""802.15.4 MAC service.

Binds a native radio (:class:`~repro.chips.rzusbstick.Dot15d4Radio`) to MAC
behaviour: address filtering, sequence numbers, immediate acknowledgements,
duplicate rejection and beacon responses to active scans.  This is the layer
Scenario B's attack steps interact with:

* the coordinator answers Beacon Requests → active scanning works;
* data frames are acknowledged → the spoofed sensor looks alive;
* address filtering is destination-only — spoofed *source* addresses pass,
  which is the whole point of the remote-AT-command injection.

Link reliability (unslotted CSMA-CA + ACK-wait retransmission) follows
§7.5.1 of the standard: outgoing data frames wait a random backoff of
``0..2^BE-1`` unit periods, perform a clear-channel assessment against the
medium's in-flight transmissions, and — when an acknowledgement was
requested — are retransmitted up to ``macMaxFrameRetries`` times if no ACK
arrives within ``macAckWaitDuration``.  The PIB attributes are the
standard's defaults, held as constants: :data:`MIN_BE` (macMinBE 3),
:data:`MAX_BE` (macMaxBE 5), :data:`MAX_CSMA_BACKOFFS` (macMaxCSMABackoffs
4), :data:`UNIT_BACKOFF_S` (aUnitBackoffPeriod, 20 symbols),
:data:`MAX_FRAME_RETRIES` (macMaxFrameRetries 3) and
:data:`ACK_WAIT_DURATION_S` (macAckWaitDuration, 54 symbols).
:meth:`MacService.send_frame` is the single-shot path (no CSMA, no
retries) for acknowledgements, beacons and injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dot15d4.frames import (
    Address,
    BROADCAST_PAN,
    BROADCAST_SHORT,
    CommandId,
    FrameType,
    MacFrame,
    build_ack,
    build_beacon,
    build_data,
)
from repro.dot15d4.security import SecurityContext, SecurityError
from repro.obs import MAC_RETRY
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus

__all__ = ["MacService", "MacStats"]

#: Acknowledgement turnaround (aTurnaroundTime, 12 symbol periods).
ACK_TURNAROUND_S = 192e-6
#: Delay before answering a Beacon Request (models CSMA backoff).
BEACON_RESPONSE_DELAY_S = 2e-3
#: One O-QPSK symbol period at 62.5 ksymbol/s.
SYMBOL_PERIOD_S = 16e-6

# The MAC PIB attributes governing link reliability (2.4 GHz PHY defaults).
#: macMinBE: the backoff exponent of a frame's first CCA.
MIN_BE = 3
#: macMaxBE: the ceiling the exponent grows to on a busy channel.
MAX_BE = 5
#: macMaxCSMABackoffs: busy CCAs before a channel access failure.
MAX_CSMA_BACKOFFS = 4
#: aUnitBackoffPeriod (20 symbol periods).
UNIT_BACKOFF_S = 20 * SYMBOL_PERIOD_S
#: macMaxFrameRetries: retransmissions after a missed acknowledgement.
MAX_FRAME_RETRIES = 3
#: macAckWaitDuration (54 symbol periods).
ACK_WAIT_DURATION_S = 54 * SYMBOL_PERIOD_S

FrameHandler = Callable[[MacFrame], None]
SendResultHandler = Callable[[int, bool], None]


@dataclass
class MacStats:
    """Counters exposed for experiments."""

    received_frames: int = field(default=0, init=False)
    fcs_failures: int = field(default=0, init=False)
    duplicates: int = field(default=0, init=False)
    acks_sent: int = field(default=0, init=False)
    acks_received: int = field(default=0, init=False)
    beacons_sent: int = field(default=0, init=False)
    sent_frames: int = field(default=0, init=False)
    security_failures: int = field(default=0, init=False)
    #: Retransmissions after a missed acknowledgement.
    retries: int = field(default=0, init=False)
    #: CSMA backoff slots where CCA found the channel busy.
    csma_backoffs: int = field(default=0, init=False)
    #: Transmissions abandoned because CCA never found the channel clear.
    channel_access_failures: int = field(default=0, init=False)
    #: ACK-wait windows that expired without the matching ACK.
    ack_timeouts: int = field(default=0, init=False)
    #: Frames dropped after exhausting retries or channel access attempts.
    drops: int = field(default=0, init=False)


@dataclass
class _PendingTx:
    """One outgoing frame moving through CSMA-CA / ACK-retry."""

    frame: MacFrame
    on_result: Optional[SendResultHandler] = None
    retries: int = field(default=0, init=False)
    nb: int = field(default=0, init=False)
    be: int = field(default=0, init=False)


class MacService:
    """MAC-layer behaviour for one 802.15.4 node."""

    def __init__(
        self,
        radio,
        address: Address,
        is_coordinator: bool = False,
        security: Optional[SecurityContext] = None,
    ):
        self.radio = radio
        self.address = address
        self.is_coordinator = is_coordinator
        self.security = security
        self._rng: Optional[np.random.Generator] = None
        self._rng_seed = (address.pan_id << 20) ^ address.address ^ 0xC5A3
        self.stats = MacStats()
        self.trace = _current_bus()
        self.metrics = _current_metrics()
        self._sequence = 0
        self._seen: Dict[Tuple[int, int], int] = {}
        self._data_handler: Optional[FrameHandler] = None
        self._tx_queue: List[_PendingTx] = []
        self._tx_busy = False
        self._ack_wait_handle = None
        self._awaiting_seq: Optional[int] = None

    @property
    def rng(self) -> np.random.Generator:
        """The backoff stream.

        A per-node deterministic stream, keyed by the address at
        construction, so simultaneous senders de-synchronise reproducibly;
        derived at the first backoff, so a node that never backs off pays
        for no generator.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self._rng_seed)
        return self._rng

    # -- wiring ------------------------------------------------------------
    def start(self) -> None:
        self.radio.start_rx(self._on_psdu)

    def stop(self) -> None:
        self.radio.stop_rx()

    def on_data(self, handler: FrameHandler) -> None:
        self._data_handler = handler

    @property
    def _scheduler(self):
        return self.radio.transceiver.medium.scheduler

    @property
    def _medium(self):
        return self.radio.transceiver.medium

    # -- sending ------------------------------------------------------------
    def next_sequence(self) -> int:
        self._sequence = (self._sequence + 1) & 0xFF
        return self._sequence

    def send_data(
        self,
        destination: Address,
        payload: bytes,
        on_result: Optional[SendResultHandler] = None,
    ) -> int:
        """Queue a data frame, requesting an acknowledgement, for CSMA-CA
        transmission.

        Returns the frame's sequence number immediately; the transmission
        itself proceeds through backoff / CCA / ACK-wait on the scheduler.
        *on_result* (if given) fires with ``(sequence, delivered)`` once the
        frame is acknowledged or dropped.
        """
        frame = build_data(
            source=self.address,
            destination=destination,
            payload=payload,
            sequence_number=self.next_sequence(),
        )
        if self.security is not None:
            frame = self.security.protect(frame)
        self._enqueue(_PendingTx(frame=frame, on_result=on_result))
        return frame.sequence_number

    def send_frame(self, frame: MacFrame) -> None:
        """Transmit a pre-built frame immediately (no CSMA, no retries).

        Acknowledgement frames, beacons and injection paths use this; data
        traffic should go through :meth:`send_data`.
        """
        self.radio.transmit_frame(frame)
        self.stats.sent_frames += 1

    # -- CSMA-CA / retransmission -------------------------------------------
    def _enqueue(self, pending: _PendingTx) -> None:
        self._tx_queue.append(pending)
        self._kick_queue()

    def _kick_queue(self) -> None:
        if self._tx_busy or not self._tx_queue:
            return
        self._tx_busy = True
        pending = self._tx_queue[0]
        pending.nb = 0
        pending.be = MIN_BE
        self._csma_attempt(pending)

    def _csma_attempt(self, pending: _PendingTx) -> None:
        slots = int(self.rng.integers(0, 2 ** pending.be))
        delay = slots * UNIT_BACKOFF_S
        self._scheduler.schedule(delay, lambda: self._cca(pending))

    def _cca(self, pending: _PendingTx) -> None:
        busy = (
            self.radio.transceiver.is_transmitting
            or self._medium.channel_busy(self.radio.transceiver)
        )
        if not busy:
            self._transmit_pending(pending)
            return
        self.stats.csma_backoffs += 1
        self.metrics.counter("mac.csma_backoffs").inc()
        pending.nb += 1
        pending.be = min(pending.be + 1, MAX_BE)
        if pending.nb > MAX_CSMA_BACKOFFS:
            self.stats.channel_access_failures += 1
            self.stats.drops += 1
            self.metrics.counter("mac.channel_access_failures").inc()
            self.metrics.counter("mac.drops").inc()
            self._finish_pending(pending, delivered=False)
            return
        self._csma_attempt(pending)

    def _transmit_pending(self, pending: _PendingTx) -> None:
        tx = self.radio.transmit_frame(pending.frame)
        self.stats.sent_frames += 1
        airtime = max(tx.end_time - self._scheduler.now, 0.0)
        self._awaiting_seq = pending.frame.sequence_number
        self._ack_wait_handle = self._scheduler.schedule(
            airtime + ACK_WAIT_DURATION_S,
            lambda: self._ack_timeout(pending),
        )

    def _ack_timeout(self, pending: _PendingTx) -> None:
        self._ack_wait_handle = None
        self._awaiting_seq = None
        self.stats.ack_timeouts += 1
        self.metrics.counter("mac.ack_timeouts").inc()
        if pending.retries < MAX_FRAME_RETRIES:
            pending.retries += 1
            self.stats.retries += 1
            self.metrics.counter("mac.retries").inc()
            if self.trace.active:
                self.trace.emit(
                    MAC_RETRY,
                    time=self._scheduler.now,
                    source="mac",
                    node=str(self.address),
                    sequence=pending.frame.sequence_number,
                    attempt=pending.retries + 1,
                )
            pending.nb = 0
            pending.be = MIN_BE
            self._csma_attempt(pending)
            return
        self.stats.drops += 1
        self.metrics.counter("mac.drops").inc()
        self._finish_pending(pending, delivered=False)

    def _on_matching_ack(self) -> None:
        if self._ack_wait_handle is not None:
            self._ack_wait_handle.cancel()
            self._ack_wait_handle = None
        self._awaiting_seq = None
        if self._tx_queue:
            self._finish_pending(self._tx_queue[0], delivered=True)

    def _finish_pending(self, pending: _PendingTx, delivered: bool) -> None:
        if self._tx_queue and self._tx_queue[0] is pending:
            self._tx_queue.pop(0)
        self._tx_busy = False
        if pending.on_result is not None:
            pending.on_result(pending.frame.sequence_number, delivered)
        self._kick_queue()

    # -- receiving -----------------------------------------------------------
    def _on_psdu(self, received) -> None:
        self.stats.received_frames += 1
        self.metrics.counter("mac.received_frames").inc()
        if not received.fcs_ok:
            self.stats.fcs_failures += 1
            self.metrics.counter("mac.fcs_failures").inc()
            return
        try:
            # The PHY has already checked the FCS: check it once per frame.
            frame = MacFrame.parse(received.psdu, check_fcs=False)
        except ValueError:
            return
        if frame.frame_type is FrameType.ACK:
            self.stats.acks_received += 1
            if (
                self._awaiting_seq is not None
                and frame.sequence_number == self._awaiting_seq
            ):
                self._on_matching_ack()
            return
        if not self._accepts(frame):
            return
        # Acknowledge before duplicate rejection: a retransmission whose
        # original ACK was lost must be re-acknowledged or the sender would
        # retry forever (§6.7.4.1 of the standard does the same).
        if (
            frame.ack_request
            and frame.destination is not None
            and not frame.destination.is_broadcast()
            and frame.destination.address == self.address.address
        ):
            self._schedule_ack(frame.sequence_number)
        if self._is_duplicate(frame):
            self.stats.duplicates += 1
            return
        if frame.frame_type is FrameType.DATA:
            if not self._apply_security(frame):
                return
            if self._data_handler is not None:
                self._data_handler(frame)
        elif frame.frame_type is FrameType.COMMAND:
            self._handle_command(frame)

    def _accepts(self, frame: MacFrame) -> bool:
        dest = frame.destination
        if dest is None:
            # Beacons carry no destination; everyone may process them.
            return frame.frame_type is FrameType.BEACON
        if dest.pan_id not in (self.address.pan_id, BROADCAST_PAN):
            return False
        return dest.address in (self.address.address, BROADCAST_SHORT)

    def _is_duplicate(self, frame: MacFrame) -> bool:
        if frame.source is None:
            return False
        key = (frame.source.pan_id, frame.source.address)
        last = self._seen.get(key)
        if last is not None and last == frame.sequence_number:
            return True
        self._seen[key] = frame.sequence_number
        return False

    def _apply_security(self, frame: MacFrame) -> bool:
        """Enforce the node's security policy on an incoming data frame.

        With a :class:`SecurityContext` configured, unsecured data frames
        are rejected outright and secured ones must authenticate + pass the
        replay check; the clear payload replaces the protected one.
        """
        if self.security is None:
            if frame.security_enabled:
                # No key material: a secured frame is undecodable noise.
                self.stats.security_failures += 1
                return False
            return True
        if not frame.security_enabled:
            self.stats.security_failures += 1
            return False
        try:
            frame.payload = self.security.unprotect(frame)
        except SecurityError:
            self.stats.security_failures += 1
            return False
        return True

    def _schedule_ack(self, sequence_number: int) -> None:
        def send() -> None:
            self.radio.transmit_frame(build_ack(sequence_number))
            self.stats.acks_sent += 1
            self.metrics.counter("mac.acks_sent").inc()

        self._scheduler.schedule(ACK_TURNAROUND_S, send)

    def _handle_command(self, frame: MacFrame) -> None:
        if (
            self.is_coordinator
            and frame.payload[:1] == bytes([CommandId.BEACON_REQUEST])
        ):
            self._schedule_beacon()

    def _schedule_beacon(self) -> None:
        def send() -> None:
            beacon = build_beacon(
                source=self.address,
                sequence_number=self.next_sequence(),
            )
            self.radio.transmit_frame(beacon)
            self.stats.beacons_sent += 1

        self._scheduler.schedule(BEACON_RESPONSE_DELAY_S, send)
