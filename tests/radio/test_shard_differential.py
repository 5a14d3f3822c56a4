"""Differential equivalence: sharded medium vs dense reference.

The sharded medium's whole claim is *semantic transparency*: for any
topology, any schedule, and any chaos profile, a
:class:`ShardedRfMedium` must produce byte-identical delivered captures,
an identical scheduler-ordered trace of delivery decisions, and identical
decode outcomes to a dense :class:`RfMedium` configured with the same
``range_cutoff_m``.  Hypothesis generates the topologies; every assertion
here is exact (bytes and event lists, no tolerances).

A separate class pins the legacy boundary: a sharded medium whose cutoff
exceeds the topology's diameter reproduces the *unbounded* dense medium
byte for byte.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, build_data
from repro.dsp.signal import IQSignal
from repro.faults.injector import FaultInjector
from repro.faults.plan import named_profile
from repro.obs import MEDIUM_DELIVERY, TraceRecorder, scoped
from repro.radio import RfMedium, Scheduler, ShardedRfMedium, Transceiver

SAMPLE_RATE = 4e6

# -- topology strategy ---------------------------------------------------------

#: Tunings three Zigbee channels apart: near pairs interact, far pairs are
#: spectrally disjoint — both predicates get exercised.
FREQUENCIES = (2405e6, 2410e6, 2425e6)

node_st = st.tuples(
    st.integers(0, 40),  # x (m)
    st.integers(0, 40),  # y (m)
    st.integers(0, len(FREQUENCIES) - 1),  # tuning index
)

#: (node index modulus, start time in µs, duration in samples, tone index)
tx_st = st.tuples(
    st.integers(0, 7),
    st.integers(0, 1500),
    st.integers(48, 160),
    st.integers(0, 5),
)

#: (node index modulus, time in µs, tuning index): a scripted
#: mid-schedule re-tune of one radio, which re-indexes nothing on the
#: sharded medium.
step_st = st.tuples(
    st.integers(0, 7),
    st.integers(0, 1500),
    st.integers(0, len(FREQUENCIES) - 1),
)

topology_st = st.tuples(
    st.lists(node_st, min_size=2, max_size=5),
    st.lists(tx_st, min_size=1, max_size=6),
    st.sampled_from([10.0, 15.0, 25.0]),
    st.lists(step_st, max_size=4),
)


def _tone(duration: int, tone: int, center: float) -> IQSignal:
    """A deterministic band-limited test waveform (no DSP cost)."""
    n = np.arange(duration)
    f = 50e3 * (tone + 1)
    samples = np.exp(2j * np.pi * f * n / SAMPLE_RATE) * (0.5 + 0.1 * tone)
    return IQSignal(samples, SAMPLE_RATE, center)


def _run_world(medium_factory, topology, chaos=None):
    """Simulate one scripted topology; return everything observable.

    Captures are recorded as raw bytes (per receiver, in delivery order)
    and the trace is recorded verbatim — byte/sequence equality between
    two worlds implies decision equality everywhere downstream.
    """
    nodes, transmissions, cutoff, steps = topology
    with scoped() as (bus, registry):
        recorder = TraceRecorder(bus)
        scheduler = Scheduler()
        medium = medium_factory(scheduler, cutoff)
        if chaos is not None:
            medium.install_fault_injector(
                FaultInjector(named_profile(chaos, channel=11, seed=5))
            )
        radios = []
        captures = {}
        for i, (x, y, f_idx) in enumerate(nodes):
            radio = Transceiver(
                medium,
                name=f"node-{i}",
                position=(float(x), float(y)),
            )
            radio.tune(FREQUENCIES[f_idx])
            captures[radio.name] = []
            radio.start_rx(
                lambda cap, tx, name=radio.name: captures[name].append(
                    (tx.identifier, cap.samples.tobytes())
                )
            )
            radios.append(radio)
        for node_mod, start_us, duration, tone in transmissions:
            source = radios[node_mod % len(radios)]
            signal = _tone(duration, tone, source.tuned_hz)
            scheduler.schedule_at(
                start_us * 1e-6,
                lambda s=source, sig=signal: s.transmit(sig),
            )
        for node_mod, at_us, f_idx in steps:
            radio = radios[node_mod % len(radios)]
            scheduler.schedule_at(
                at_us * 1e-6, lambda r=radio, f=f_idx: r.tune(FREQUENCIES[f])
            )
        scheduler.run(0.01)
        trace = [
            (e.name, e.time, tuple(sorted(e.fields.items())))
            for e in recorder.events
            if e.name == MEDIUM_DELIVERY
        ]
        counters = registry.counter_values()
    return captures, trace, counters


def _dense(scheduler, cutoff):
    return RfMedium(
        scheduler, sample_rate=SAMPLE_RATE, seed=3, range_cutoff_m=cutoff
    )


def _sharded(scheduler, cutoff):
    return ShardedRfMedium(
        scheduler, sample_rate=SAMPLE_RATE, seed=3, range_cutoff_m=cutoff
    )


def _dense_unbounded(scheduler, _cutoff):
    return RfMedium(scheduler, sample_rate=SAMPLE_RATE, seed=3)


def _sharded_huge_cutoff(scheduler, _cutoff):
    # Beyond any generated topology's diameter (40√2 m area): the range
    # predicate never fires, so this must equal the unbounded dense medium.
    return ShardedRfMedium(
        scheduler, sample_rate=SAMPLE_RATE, seed=3, range_cutoff_m=100.0
    )


class TestCaptureByteIdentity:
    """Sharded == dense-with-cutoff, exactly, on generated topologies."""

    @settings(max_examples=60, deadline=None)
    @given(topology=topology_st)
    # node-0 re-tuned off node-2's channel before node-2's frame.
    @example(
        topology=(
            [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
            [(2, 500, 64, 0)],
            10.0,
            [(0, 100, 1)],
        )
    )
    def test_captures_and_trace_identical(self, topology):
        dense = _run_world(_dense, topology)
        sharded = _run_world(_sharded, topology)
        assert dense[0] == sharded[0]  # per-receiver capture bytes
        assert dense[1] == sharded[1]  # delivery trace, in order
        assert dense[2] == sharded[2]  # counters (incl. the ledger)

    @settings(max_examples=25, deadline=None)
    @given(topology=topology_st)
    def test_huge_cutoff_equals_legacy_dense(self, topology):
        dense = _run_world(_dense_unbounded, topology)
        sharded = _run_world(_sharded_huge_cutoff, topology)
        assert dense[0] == sharded[0]
        assert dense[1] == sharded[1]
        assert dense[2] == sharded[2]


class TestChaosDifferential:
    """Equivalence holds under fault injection, ledger reconciled exactly."""

    @settings(max_examples=25, deadline=None)
    @given(topology=topology_st, chaos=st.sampled_from(["dropout", "flaky-rx"]))
    def test_chaos_worlds_identical(self, topology, chaos):
        dense = _run_world(_dense, topology, chaos=chaos)
        sharded = _run_world(_sharded, topology, chaos=chaos)
        assert dense[0] == sharded[0]
        assert dense[1] == sharded[1]
        assert dense[2] == sharded[2]
        # The trace ledger must balance in both worlds: every scheduled
        # delivery is delivered or skipped; suppressions never schedule.
        for captures, trace, counters in (dense, sharded):
            scheduled = counters.get("medium.deliveries.scheduled", 0)
            delivered = counters.get("medium.deliveries.delivered", 0)
            skipped = counters.get("medium.deliveries.skipped", 0)
            assert scheduled == delivered + skipped
            assert delivered == sum(len(c) for c in captures.values())


class TestDecodeDecisionIdentity:
    """Full-stack check: real 802.15.4 decode decisions match."""

    @settings(max_examples=15, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=24),
        rx_offset=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        seed=st.integers(0, 2**16),
    )
    def test_decoded_frames_identical(self, payload, rx_offset, seed):
        frame = build_data(
            source=Address(pan_id=0x1234, address=0x42),
            destination=Address(pan_id=0x1234, address=0x63),
            payload=payload,
            sequence_number=seed & 0xFF,
        )

        def world(medium_factory):
            scheduler = Scheduler()
            medium = medium_factory(scheduler, 15.0)
            tx = Dot15d4Radio(medium, name="tx", position=(0.0, 0.0))
            rx = Dot15d4Radio(
                medium,
                name="rx",
                position=(float(rx_offset[0]), float(rx_offset[1])),
            )
            far = Dot15d4Radio(medium, name="far", position=(200.0, 200.0))
            received = []
            rx.start_rx(received.append)
            far_received = []
            far.start_rx(far_received.append)
            scheduler.schedule_at(1e-4, lambda: tx.transmit_frame(frame))
            scheduler.run(0.01)
            assert far_received == []  # out of range in both worlds
            return [
                (p.psdu, p.fcs_ok, p.channel, p.timestamp, p.mean_chip_distance)
                for p in received
            ]

        assert world(_dense) == world(_sharded)
