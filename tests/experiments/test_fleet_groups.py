"""The fleet campaign's independence split.

Two PANs share a group when they share a channel and some pair of their
devices (nodes and attacker posts) is within the medium's range cutoff;
groups run in separate processes.  These tests pin the grouping on
hand-built and benchmark-shaped fleets, the serial-versus-split equality
of whole campaigns, that chaos and zero-length runs stay in the calling
process, and that no pool process outlives a campaign whose group
raises.
"""

import dataclasses
import functools
import multiprocessing

import pytest

from repro.experiments import fleet as fleet_module
from repro.experiments import pool as pool_module
from repro.experiments.fleet import (
    MEDIUM_CUTOFFS_M,
    _pack,
    independent_groups,
    run_fleet_campaign,
)
from repro.experiments.pool import default_workers
from repro.zigbee.fleet import (
    COORDINATOR_ADDRESS,
    FLEET_RANGE_CUTOFF_M,
    SENSOR_ADDRESS_BASE,
    FleetNodeSpec,
    FleetSpec,
    PanSpec,
    make_fleet,
)
from tests.golden import generate


def _pan(index, center, channel=15):
    """A coordinator at *center* and one sensor 1 m east of it; the PAN's
    attacker post is 2 m east and 1 m north of *center*."""
    pan_id = 0x1000 + index
    nodes = (
        FleetNodeSpec(
            name=f"p{index:02d}-coord",
            pan_id=pan_id,
            address=COORDINATOR_ADDRESS,
            role="coordinator",
            position=center,
        ),
        FleetNodeSpec(
            name=f"p{index:02d}-s000",
            pan_id=pan_id,
            address=SENSOR_ADDRESS_BASE,
            role="sensor",
            position=(center[0] + 1.0, center[1]),
            uplink=COORDINATOR_ADDRESS,
            battery_j=0.05,
        ),
    )
    return PanSpec(pan_id=pan_id, channel=channel, center=center, nodes=nodes)


def _groups(*pans, cutoff=FLEET_RANGE_CUTOFF_M):
    return independent_groups(FleetSpec(seed=0, pans=pans), cutoff)


def _report_shaped_fleet():
    """The ``report`` benchmark's fleet: 208 nodes in 16 PANs, one channel."""
    workload = generate.fleetbench_workloads().WORKLOADS["report"]
    return workload.spec(generate.FLEETBENCH_SEED)


def _shifted(pan, dx):
    return dataclasses.replace(
        pan,
        center=(pan.center[0] + dx, pan.center[1]),
        nodes=tuple(
            dataclasses.replace(n, position=(n.position[0] + dx, n.position[1]))
            for n in pan.nodes
        ),
    )


class TestGroups:
    def test_isolated_channel_reuse_pans_are_one_group_each(self):
        groups = independent_groups(_report_shaped_fleet(), FLEET_RANGE_CUTOFF_M)
        assert groups == [[i] for i in range(16)]

    def test_same_channel_pans_within_the_cutoff_share_a_group(self):
        # Nearest pair: attacker post (2, 1) and coordinator (16, 0), 14.04 m.
        assert _groups(_pan(0, (0.0, 0.0)), _pan(1, (16.0, 0.0))) == [[0, 1]]
        # Nearest pair 18.03 m apart.
        assert _groups(_pan(0, (0.0, 0.0)), _pan(1, (20.0, 0.0))) == [[0], [1]]

    def test_a_pair_exactly_at_the_cutoff_is_in_range(self):
        # Attacker post (2, 1) to coordinator (17, 1): 15.0 m, and the
        # medium delivers at distance <= cutoff.
        assert _groups(_pan(0, (0.0, 0.0)), _pan(1, (17.0, 1.0))) == [[0, 1]]

    def test_channel_disjoint_pans_are_separate(self):
        near = (_pan(0, (0.0, 0.0), channel=15), _pan(1, (1.0, 0.0), channel=16))
        assert _groups(*near) == [[0], [1]]
        assert _groups(*near, cutoff=None) == [[0], [1]]

    def test_groups_are_connected_components_in_spec_order(self):
        # 0 reaches 3 only through 2; 1 stands alone, and 4 is on
        # another channel.
        pans = (
            _pan(0, (0.0, 0.0)),
            _pan(1, (100.0, 0.0)),
            _pan(2, (16.0, 0.0)),
            _pan(3, (32.0, 0.0)),
            _pan(4, (200.0, 0.0), channel=20),
        )
        assert _groups(*pans) == [[0, 2, 3], [1], [4]]

    def test_dense_unbounded_never_splits_a_shared_channel(self):
        spec = _report_shaped_fleet()
        assert MEDIUM_CUTOFFS_M["dense-unbounded"] is None
        assert independent_groups(spec, None) == [list(range(16))]
        far = (_pan(0, (0.0, 0.0)), _pan(1, (1e4, 0.0)))
        assert _groups(*far, cutoff=None) == [[0, 1]]

    def test_groups_are_dealt_into_node_balanced_bins(self):
        spec = _report_shaped_fleet()
        bins = _pack(spec, [[i] for i in range(16)], 2)
        assert [[p.pan_id - 0x1000 for p in b.pans] for b in bins] == [
            list(range(0, 16, 2)),
            list(range(1, 16, 2)),
        ]
        assert [b.num_nodes for b in bins] == [104, 104]
        # Each group lands whole; bins never outnumber groups.
        bins = _pack(spec, [list(range(12)), [12], [13], [14, 15]], 4)
        assert [[p.pan_id - 0x1000 for p in b.pans] for b in bins] == [
            list(range(12)), [12], [13], [14, 15]
        ]
        assert len(_pack(spec, [list(range(16))], 2)) == 1


class TestSplitCampaigns:
    @pytest.mark.parametrize("name", ["report", "flood"])
    def test_benchmark_campaign_split_equals_serial(self, name):
        workload = generate.fleetbench_workloads().WORKLOADS[name]
        spec = workload.spec(generate.FLEETBENCH_SEED)
        serial = workload.run(spec, workers=1)
        split = workload.run(spec)
        assert split.workers == default_workers(16)
        assert serial.totals("received") > 0
        assert serial.to_dict() == split.to_dict()

    def test_interacting_pans_split_equals_serial(self):
        spec = make_fleet(num_nodes=36, num_pans=3, seed=6, channel_reuse=True)
        # Move PAN 1 from 60 m to 10 m east of PAN 0: the two interact.
        pans = list(spec.pans)
        pans[1] = _shifted(pans[1], -50.0)
        spec = FleetSpec(spec.seed, tuple(pans))
        assert independent_groups(spec, FLEET_RANGE_CUTOFF_M) == [[0, 1], [2]]
        kwargs = dict(attack=True, flood_rate_hz=80.0, duration_s=0.1)
        serial = run_fleet_campaign(spec, workers=1, **kwargs)
        split = run_fleet_campaign(spec, workers=2, **kwargs)
        assert serial.to_dict() == split.to_dict()
        # The neighbours really do hear each other's traffic.
        alone = run_fleet_campaign(
            FleetSpec(spec.seed, spec.pans[:1]), workers=1, **kwargs
        )
        assert alone.reports[0].to_dict() != serial.reports[0].to_dict()


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestInProcess:
    @pytest.fixture()
    def spec(self):
        return make_fleet(num_nodes=24, num_pans=2, seed=2, channel_reuse=True)

    def test_chaos_runs_start_no_pool(self, spec, monkeypatch):
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
        result = run_fleet_campaign(
            spec, attack=False, duration_s=0.2, chaos="dropout"
        )
        assert result.workers == 1 and result.ledger_balanced

    def test_zero_length_runs_start_no_pool(self, spec, monkeypatch):
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
        result = run_fleet_campaign(spec, duration_s=0.0)
        assert result.workers == 1 and result.ledger_balanced

    @pytest.mark.skipif(default_workers(2) < 2, reason="one usable CPU")
    def test_other_default_runs_do_start_one(self, spec, monkeypatch):
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
        with pytest.raises(AssertionError, match="pool was started"):
            run_fleet_campaign(spec, attack=False, duration_s=0.05)


def _failing_group(spec, fail_pan_id, **_campaign):
    if spec.pans[0].pan_id == fail_pan_id:
        raise RuntimeError(f"group of {fail_pan_id:#06x} failed")


@pytest.mark.parametrize(
    "fail_pan_id", [0x1000, 0x1001], ids=["caller-group", "pool-group"]
)
def test_no_process_outlives_a_failing_group(fail_pan_id, monkeypatch):
    spec = make_fleet(num_nodes=24, num_pans=2, seed=2, channel_reuse=True)
    failing = functools.partial(_failing_group, fail_pan_id=fail_pan_id)
    monkeypatch.setattr(fleet_module, "_run_group", failing)
    with pytest.raises(RuntimeError, match=f"{fail_pan_id:#06x}"):
        run_fleet_campaign(spec, attack=False, duration_s=0.05, workers=2)
    assert multiprocessing.active_children() == []
