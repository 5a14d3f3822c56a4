"""Property tests for the sharded medium's interest management.

Two families of guarantees beyond raw differential equality:

* **isolation** — a node that is out of range or off channel contributes
  nothing: no delivery trace events, and byte-identical captures whether
  the node exists or not;
* **keyed randomness** — the regression the differential harness forced:
  per-receiver noise/fault streams are keyed by name, so outcomes are
  invariant under attach-order permutation and bystander insertion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.signal import IQSignal
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SampleDrops
from repro.obs import MEDIUM_DELIVERY, TraceRecorder, scoped
from repro.radio import (
    BufferPool,
    CellGrid,
    RfMedium,
    Scheduler,
    ShardedRfMedium,
    Transceiver,
)

SAMPLE_RATE = 4e6


def _tone(duration: int = 64, center: float = 2405e6) -> IQSignal:
    n = np.arange(duration)
    samples = np.exp(2j * np.pi * 80e3 * n / SAMPLE_RATE) * 0.5
    return IQSignal(samples, SAMPLE_RATE, center)


def _sharded(seed: int = 3, cutoff: float = 15.0) -> ShardedRfMedium:
    return ShardedRfMedium(
        Scheduler(), sample_rate=SAMPLE_RATE, seed=seed, range_cutoff_m=cutoff
    )


def _recording_rx(medium, name, position, tuned=2405e6):
    radio = Transceiver(medium, name=name, position=position)
    radio.tune(tuned)
    captures = []
    radio.start_rx(
        lambda cap, tx: captures.append((tx.identifier, cap.samples.tobytes()))
    )
    return radio, captures


class TestCellGrid:
    def test_cell_of_floors(self):
        grid = CellGrid(10.0)
        assert grid.cell_of((0.0, 0.0)) == (0, 0)
        assert grid.cell_of((9.99, 10.0)) == (0, 1)
        assert grid.cell_of((-0.01, -10.0)) == (-1, -1)

    def test_neighborhood_is_3x3(self):
        grid = CellGrid(10.0)
        cells = set(grid.neighborhood((2, -1)))
        assert len(cells) == 9
        assert (1, -2) in cells and (3, 0) in cells

    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            CellGrid(0.0)


def pooled(pool: BufferPool) -> int:
    """How many released buffers *pool* holds for reuse."""
    return sum(len(free) for free in pool._free.values())


class TestBufferPool:
    def test_acquire_is_zeroed_like_fresh(self):
        pool = BufferPool()
        buf = pool.acquire(32)
        buf[:] = 1.0 + 2.0j
        pool.release(buf)
        again = pool.acquire(32)
        assert again is buf
        assert again.tobytes() == np.zeros(32, dtype=np.complex128).tobytes()
        assert pool.hits == 1 and pool.misses == 1

    def test_class_cap_bounds_memory(self):
        pool = BufferPool()
        bufs = [pool.acquire(16) for _ in range(BufferPool.max_per_class + 3)]
        for buf in bufs:
            pool.release(buf)
        assert pooled(pool) == BufferPool.max_per_class

    def test_views_are_not_pooled(self):
        pool = BufferPool()
        buf = pool.acquire(16)
        pool.release(buf[2:])
        block = pool.acquire((3, 16))
        pool.release(block[1])
        assert pooled(pool) == 0

    def test_stacks_pool_by_shape(self):
        pool = BufferPool()
        block = pool.acquire((12, 32))
        assert block.shape == (12, 32) and block.dtype == np.complex128
        block[:] = 1.0
        pool.release(block)
        assert pool.acquire((11, 32)) is not block
        again = pool.acquire((12, 32))
        assert again is block and not again.any()
        row = pool.acquire(32)
        pool.release(row)
        assert pool.acquire((32,)) is row
        assert (pool.hits, pool.misses) == (2, 3)


class TestIsolation:
    """Out-of-range / off-channel nodes contribute nothing, exactly."""

    @settings(max_examples=20, deadline=None)
    @given(
        far_pos=st.tuples(st.integers(40, 200), st.integers(40, 200)),
        tuned_idx=st.integers(0, 1),
    )
    def test_far_node_is_invisible(self, far_pos, tuned_idx):
        def world(with_far: bool):
            with scoped() as (bus, _registry):
                recorder = TraceRecorder(bus)
                medium = _sharded()
                scheduler = medium.scheduler
                tx = Transceiver(medium, name="tx", position=(0.0, 0.0))
                tx.tune(2405e6)
                _rx, captures = _recording_rx(medium, "rx", (3.0, 0.0))
                if with_far:
                    far = Transceiver(
                        medium,
                        name="far",
                        position=(float(far_pos[0]), float(far_pos[1])),
                    )
                    far.tune((2405e6, 2425e6)[tuned_idx])
                    far_caps = []
                    far.start_rx(
                        lambda cap, t: far_caps.append(cap.samples.tobytes())
                    )
                    # The far node transmits too — still invisible to rx.
                    scheduler.schedule_at(
                        3e-5, lambda: far.transmit(_tone(center=far.tuned_hz))
                    )
                scheduler.schedule_at(1e-5, lambda: tx.transmit(_tone()))
                scheduler.run(0.005)
                deliveries = [
                    (e.fields["rx"], e.fields["status"], e.fields["tx_id"])
                    for e in recorder.events
                    if e.name == MEDIUM_DELIVERY
                ]
            return captures, deliveries

        base_caps, base_deliveries = world(with_far=False)
        far_caps, far_deliveries = world(with_far=True)
        # rx's captures are byte-identical with the far node present, and
        # no delivery event ever pairs rx with the far node's traffic.
        assert far_caps == base_caps
        assert [d for d in far_deliveries if d[0] == "rx"] == base_deliveries

    def test_off_channel_node_gets_no_deliveries(self):
        with scoped() as (bus, _registry):
            recorder = TraceRecorder(bus)
            medium = _sharded()
            tx = Transceiver(medium, name="tx", position=(0.0, 0.0))
            tx.tune(2405e6)
            _near, near_caps = _recording_rx(medium, "near", (2.0, 0.0))
            _off, off_caps = _recording_rx(
                medium, "off", (2.0, 1.0), tuned=2425e6
            )
            medium.scheduler.schedule_at(1e-5, lambda: tx.transmit(_tone()))
            medium.scheduler.run(0.005)
            assert len(near_caps) == 1
            assert off_caps == []
            assert all(
                e.fields["rx"] != "off"
                for e in recorder.events
                if e.name == MEDIUM_DELIVERY
            )


class TestKeyedRandomness:
    """The latent dense-medium bug the harness forced out: RNG streams are
    keyed by node name, never by registration order."""

    @settings(max_examples=15, deadline=None)
    @given(order=st.permutations([0, 1, 2]))
    def test_attach_order_invariance(self, order):
        def world(attach_order):
            medium = RfMedium(
                Scheduler(), sample_rate=SAMPLE_RATE, seed=9
            )
            scheduler = medium.scheduler
            specs = [
                ("a", (0.0, 0.0)),
                ("b", (3.0, 0.0)),
                ("c", (0.0, 4.0)),
            ]
            radios = {}
            captures = {name: [] for name, _pos in specs}
            for idx in attach_order:
                name, pos = specs[idx]
                radio = Transceiver(medium, name=name, position=pos)
                radio.tune(2405e6)
                radio.start_rx(
                    lambda cap, tx, n=name: captures[n].append(
                        cap.samples.tobytes()
                    )
                )
                radios[name] = radio
            scheduler.schedule_at(
                1e-5, lambda: radios["a"].transmit(_tone())
            )
            scheduler.schedule_at(
                2e-4, lambda: radios["b"].transmit(_tone())
            )
            scheduler.run(0.005)
            return captures

        assert world([0, 1, 2]) == world(list(order))

    def test_bystander_insertion_invariance(self):
        """Adding an unrelated (distant, cutoff medium) receiver must not
        shift anyone else's noise draws."""

        def world(with_bystander: bool):
            medium = RfMedium(
                Scheduler(),
                sample_rate=SAMPLE_RATE,
                seed=9,
                range_cutoff_m=15.0,
            )
            scheduler = medium.scheduler
            tx = Transceiver(medium, name="tx", position=(0.0, 0.0))
            tx.tune(2405e6)
            _rx, captures = _recording_rx(medium, "rx", (3.0, 0.0))
            if with_bystander:
                _by, _caps = _recording_rx(medium, "bystander", (5.0, 0.0))
            scheduler.schedule_at(1e-5, lambda: tx.transmit(_tone()))
            scheduler.schedule_at(3e-4, lambda: tx.transmit(_tone()))
            scheduler.run(0.005)
            return captures

        assert world(False) == world(True)

    def test_injector_counters_keyed_per_receiver(self):
        """A bystander's deliveries must not consume another receiver's
        fault cadence (sample-drop every-2nd keyed per name)."""
        plan = FaultPlan(
            seed=5,
            sample_drops=SampleDrops(num_gaps=1, gap_samples=8),
        )

        def world(with_bystander: bool):
            medium = RfMedium(Scheduler(), sample_rate=SAMPLE_RATE, seed=9)
            medium.install_fault_injector(FaultInjector(plan))
            scheduler = medium.scheduler
            tx = Transceiver(medium, name="tx", position=(0.0, 0.0))
            tx.tune(2405e6)
            _rx, captures = _recording_rx(medium, "rx", (3.0, 0.0))
            if with_bystander:
                _by, _caps = _recording_rx(medium, "bystander", (4.0, 0.0))
            for k in range(4):
                scheduler.schedule_at(
                    1e-5 + k * 2e-4, lambda: tx.transmit(_tone())
                )
            scheduler.run(0.005)
            return captures

        assert world(False) == world(True)
