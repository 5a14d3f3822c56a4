"""The per-delivery medium: the reference for transmission-major delivery.

:meth:`RfMedium.transmit` schedules one event per transmission and
delivers to all of its receivers together.  Before that, it scheduled
one event per receiver, each of which re-checked its receiver, composed
and transformed one capture and handed it to the receiver's
``handle_capture`` before the next event composed the next capture.
:func:`transmit` here is that implementation, and :func:`per_delivery`
installs it on every medium class for the duration of a block, with the
sequential decode of ``tests/phy/decode_oracle.py`` as
``Dot15d4Radio._on_capture``, so a test can run one world both ways and
compare captures, trace events and outcomes exactly.

:func:`compose_capture` is the matching reference for composition: one
receiver's capture composed on its own, as
:meth:`RfMedium.compose_capture` did before it composed a transmission's
receivers as one stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dsp.signal import IQSignal
from repro.radio.medium import RfMedium, Transmission
from tests.phy.decode_oracle import sequential_on_capture

__all__ = ["compose_capture", "per_delivery", "transmit"]


def compose_capture(
    medium: RfMedium, radio, start_time: float, end_time: float
) -> IQSignal:
    """Superpose everything *radio* hears in a time window, alone."""
    num = medium._window_samples(start_time, end_time)
    total = np.zeros(num, dtype=np.complex128)
    rng = medium._rx_stream(radio)
    for tx in medium._compose_candidates([radio]):
        if not medium._mixes(radio, tx, start_time, end_time):
            continue
        gain_db = tx.power_dbm + medium.propagation.path_gain_db(
            tx.origin, radio.position, rng=rng
        )
        amplitude = 10.0 ** (gain_db / 20.0)
        mixed = medium._mixed_samples(tx, radio.tuned_hz)
        offset = int(round((tx.start_time - start_time) * medium.sample_rate))
        medium._add_at(total, mixed, offset, scale=amplitude)
    for interferer in medium.interferers:
        burst = interferer.contribution(
            rx_center_hz=radio.tuned_hz,
            rx_bandwidth_hz=radio.bandwidth_hz,
            num_samples=num,
            sample_rate=medium.sample_rate,
            rng=rng,
        )
        total += burst.samples
    scale = np.sqrt(10.0 ** (medium.noise_floor_dbm / 10.0) / 2.0)
    re = rng.standard_normal(num)
    im = rng.standard_normal(num)
    total.real += scale * re
    total.imag += scale * im
    return IQSignal(total, medium.sample_rate, radio.tuned_hz)


def transmit(
    medium: RfMedium, source, signal: IQSignal, power_dbm: float
) -> Transmission:
    """Put *signal* on the air now; schedule one delivery per receiver."""
    if signal.sample_rate != medium.sample_rate:
        raise ValueError(
            f"signal sample rate {signal.sample_rate} differs from medium "
            f"rate {medium.sample_rate}"
        )
    medium._prune(medium.scheduler.now - medium.prune_horizon_s)
    tx = Transmission(
        source=source,
        signal=signal,
        start_time=medium.scheduler.now,
        power_dbm=power_dbm,
        identifier=medium._next_id,
        origin=tuple(source.position),
    )
    medium._next_id += 1
    medium._transmissions.append(tx)
    medium._index_transmission(tx)
    medium.metrics.counter("medium.transmissions").inc()
    for radio in medium._delivery_candidates(tx):
        if radio is source:
            continue
        if not radio.is_listening:
            continue
        if not medium._in_band(radio, signal.center_frequency):
            continue
        if not medium._within_range(tx, radio):
            continue
        deliveries = 1
        if medium.fault_injector is not None:
            deliveries = medium.fault_injector.delivery_count(radio, tx)
        if deliveries == 0:
            medium.metrics.counter("medium.deliveries.suppressed").inc()
            medium._trace_delivery(radio, tx, "suppressed")
            continue
        if deliveries > 1:
            medium.metrics.counter("medium.deliveries.duplicated").inc()
        for _ in range(deliveries):
            medium.metrics.counter("medium.deliveries.scheduled").inc()
            medium._trace_delivery(radio, tx, "scheduled")
            _schedule_delivery(medium, radio, tx)
    return tx


def _schedule_delivery(medium: RfMedium, radio, tx: Transmission) -> None:
    def deliver() -> None:
        # Re-check state at delivery time: the radio may have re-tuned,
        # stopped listening, or moved out of range while the frame was
        # in flight.
        if (
            not radio.is_listening
            or not medium._in_band(radio, tx.signal.center_frequency)
            or not medium._within_range(tx, radio)
        ):
            medium.metrics.counter("medium.deliveries.skipped").inc()
            medium._trace_delivery(radio, tx, "skipped")
            return
        start = tx.start_time - medium.capture_margin_s
        end = tx.end_time + medium.capture_margin_s
        capture = compose_capture(medium, radio, start, end)
        if medium.fault_injector is not None:
            capture = medium.fault_injector.transform_capture(
                radio, capture, start
            )
        medium.metrics.counter("medium.deliveries.delivered").inc()
        medium._trace_delivery(radio, tx, "delivered")
        radio.handle_capture(capture, tx)

    medium.scheduler.schedule_at(tx.end_time, deliver)


@contextmanager
def per_delivery() -> Iterator[None]:
    """Deliver one receiver per event, on every medium, and decode each
    802.15.4 capture sequentially, inside the block."""
    saved = RfMedium.__dict__["transmit"], Dot15d4Radio.__dict__["_on_capture"]
    RfMedium.transmit = transmit
    Dot15d4Radio._on_capture = sequential_on_capture
    try:
        yield
    finally:
        RfMedium.transmit, Dot15d4Radio._on_capture = saved
