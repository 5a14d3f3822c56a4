"""The fleet campaign's independence split.

Two PANs share a group when they share a channel and some pair of their
devices (nodes, attacker posts and a fault plan's jammer post) is within
the medium's range cutoff; groups run in the reused worker pool while
the caller waits.  These tests pin the grouping on hand-built and
benchmark-shaped fleets, the serial-versus-split equality of whole
campaigns under every chaos profile and of the fleet curves of a
campaign in which nodes die, that zero-length runs stay in the calling
process, and the reused pool's lifetime: Table III sweeps and campaigns
share it, a failing group leaves it usable, a killed worker is
replaced, and no worker outlives the interpreter.
"""

import dataclasses
import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import fleet as fleet_module
from repro.experiments import pool as pool_module
from repro.experiments.fleet import (
    MEDIUM_CUTOFFS_M,
    _pack,
    independent_groups,
    run_fleet_campaign,
)
from repro.experiments.pool import default_workers, map_tasks
from repro.experiments.table3 import run_table3
from repro.faults.injector import FaultInjector
from repro.faults.plan import named_profile, profile_names
from repro.zigbee.fleet import (
    COORDINATOR_ADDRESS,
    FLEET_RANGE_CUTOFF_M,
    SENSOR_ADDRESS_BASE,
    FleetNodeSpec,
    FleetSpec,
    PanSpec,
    make_fleet,
)
from tests.experiments import fleet_curve_oracle
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


def _shifted(pan, dx, dy=0.0):
    return dataclasses.replace(
        pan,
        center=(pan.center[0] + dx, pan.center[1] + dy),
        nodes=tuple(
            dataclasses.replace(
                n, position=(n.position[0] + dx, n.position[1] + dy)
            )
            for n in pan.nodes
        ),
    )


CHAOS = generate.fleetbench_workloads().WORKLOADS["chaos"]


def _jammed_fleet():
    """The ``chaos`` fleet (4 PANs of 12 nodes on one channel, 60 m
    apart) with PAN 0 moved far from the jammer post at the origin and
    PANs 1 and 3 moved 14 m west and east of it: neither PAN reaches the
    other, but the post reaches both."""
    spec = CHAOS.spec(generate.FLEETBENCH_SEED)
    pans = list(spec.pans)
    pans[0] = _shifted(pans[0], 300.0)
    pans[1] = _shifted(pans[1], -74.0)
    pans[3] = _shifted(pans[3], -46.0, -60.0)
    return FleetSpec(spec.seed, tuple(pans))


def _burst_hz(spec, profile="jammer"):
    plan = named_profile(profile, channel=spec.pans[0].channel)
    return [burst.center_hz for burst in plan.bursts]


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
        assert bins == [list(range(0, 16, 2)), list(range(1, 16, 2))]
        sizes = [sum(len(spec.pans[i].nodes) for i in b) for b in bins]
        assert sizes == [104, 104]
        # Each group lands whole; bins never outnumber groups.
        bins = _pack(spec, [list(range(12)), [12], [13], [14, 15]], 4)
        assert bins == [list(range(12)), [12], [13], [14, 15]]
        assert len(_pack(spec, [list(range(16))], 2)) == 1
        # The jammer post (index 16) weighs nothing and sorts last.
        assert _pack(spec, [[16, 0], [1]], 2) == [[0, 16], [1]]


class TestJammerPost:
    def test_the_post_joins_every_pan_it_reaches(self):
        spec = _jammed_fleet()
        assert independent_groups(spec, FLEET_RANGE_CUTOFF_M) == [
            [0], [1], [2], [3]
        ]
        assert independent_groups(
            spec, FLEET_RANGE_CUTOFF_M, _burst_hz(spec)
        ) == [[0], [1, 3, 4], [2]]

    def test_a_post_reaching_no_pan_joins_the_first_group(self):
        spec = CHAOS.spec(generate.FLEETBENCH_SEED)
        far = FleetSpec(spec.seed, tuple(_shifted(p, 300.0) for p in spec.pans))
        assert independent_groups(
            far, FLEET_RANGE_CUTOFF_M, _burst_hz(far)
        ) == [[0, 4], [1], [2], [3]]

    def test_the_post_is_on_its_bursts_channels_only(self):
        spec = _jammed_fleet()
        channel = spec.pans[0].channel
        other = 11 if channel != 11 else 12
        off = named_profile("jammer", channel=other).bursts[0].center_hz
        # Off channel it reaches no PAN, so it joins the first group.
        assert independent_groups(spec, FLEET_RANGE_CUTOFF_M, [off]) == [
            [0, 4], [1], [2], [3]
        ]
        # Unbounded, it joins every PAN on its channel.
        assert independent_groups(spec, None, _burst_hz(spec)) == [
            [0, 1, 2, 3, 4]
        ]


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

    @pytest.mark.parametrize("profile", profile_names())
    def test_chaos_campaign_split_equals_serial(self, profile):
        spec = CHAOS.spec(generate.FLEETBENCH_SEED)
        serial = CHAOS.run(spec, workers=1, chaos=profile)
        split = CHAOS.run(spec, chaos=profile)
        assert split.workers == default_workers(4)
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


def _draining_fleet():
    """24 nodes in 2 PANs whose batteries hold 2 to 18 mJ, so the flood
    kills all 22 of them, one or two at a time, within 0.3 s."""
    spec = make_fleet(num_nodes=24, num_pans=2, seed=2, channel_reuse=True)

    def drained(pan):
        nodes = tuple(
            ns if ns.battery_j is None
            else dataclasses.replace(ns, battery_j=0.002 * (1 + i % 9))
            for i, ns in enumerate(pan.nodes)
        )
        return dataclasses.replace(pan, nodes=nodes)

    return FleetSpec(spec.seed, tuple(drained(pan) for pan in spec.pans))


class TestFleetCurves:
    KWARGS = dict(duration_s=0.3, flood_rate_hz=200.0, sample_interval_s=0.02)

    def test_curves_with_deaths_equal_the_per_pan_tally(self, monkeypatch):
        spec = _draining_fleet()
        with monkeypatch.context() as patch:
            reads = fleet_curve_oracle.recording(patch)
            serial = run_fleet_campaign(spec, workers=1, **self.KWARGS)
        alive, battery = fleet_curve_oracle.per_pan_curves(spec, reads)
        assert serial.first_death_s is not None
        assert len(set(alive)) > 3 and alive[-1] == 0
        assert (serial.alive_curve, serial.battery_curve) == (alive, battery)
        split = run_fleet_campaign(spec, workers=2, **self.KWARGS)
        assert split.workers == 2
        assert (split.alive_curve, split.battery_curve) == (alive, battery)
        assert split.to_dict() == serial.to_dict()


def _in_process(fn, tasks, workers):
    return [fn(**task) for task in tasks]


class TestBursts:
    """The jammer post's bursts are drawn and counted once per campaign,
    by the sub-fleet that holds the post."""

    KWARGS = dict(attack=False, chaos="jammer", duration_s=0.3)
    #: Bursts at 0.5 ms + 10 ms k, up to the end of the 1 s drain.
    BURSTS = 130

    @pytest.fixture()
    def emitted(self, monkeypatch):
        # Fork the pool's workers first, so they never hold the patch.
        _worker_pids()
        sources = []
        emit = FaultInjector._emit_burst

        def counted(injector, burst, source):
            sources.append(source.name)
            emit(injector, burst, source)

        monkeypatch.setattr(FaultInjector, "_emit_burst", counted)
        return sources

    @pytest.mark.parametrize(
        "spec",
        [
            _jammed_fleet(),
            FleetSpec(
                generate.FLEETBENCH_SEED,
                tuple(
                    _shifted(p, 300.0)
                    for p in CHAOS.spec(generate.FLEETBENCH_SEED).pans
                ),
            ),
        ],
        ids=["post-joins-pans-1-and-3", "post-reaches-no-pan"],
    )
    def test_split_draws_each_burst_once(self, spec, emitted, monkeypatch):
        serial = run_fleet_campaign(spec, workers=1, **self.KWARGS)
        assert len(emitted) == self.BURSTS
        split = run_fleet_campaign(spec, workers=2, **self.KWARGS)
        assert split.workers == 2
        assert serial.to_dict() == split.to_dict()
        # The same split run in this process: each sub-fleet's bursts
        # are seen here, and only one sub-fleet emits any.
        del emitted[:]
        monkeypatch.setattr(fleet_module, "map_tasks", _in_process)
        assert run_fleet_campaign(spec, workers=2, **self.KWARGS).to_dict() == (
            serial.to_dict()
        )
        assert len(emitted) == self.BURSTS

    def test_the_bursts_reach_the_pans_they_join(self):
        spec = _jammed_fleet()
        jammed = run_fleet_campaign(spec, workers=1, **self.KWARGS)
        quiet = run_fleet_campaign(
            spec, workers=1, **dict(self.KWARGS, chaos="clean")
        )
        differs = [
            a.pan_id
            for a, b in zip(jammed.reports, quiet.reports)
            if a.to_dict() != b.to_dict()
        ]
        assert set(differs) == {spec.pans[1].pan_id, spec.pans[3].pan_id}


def _worker_pids():
    """The pids of this process's pool workers, making the pool first
    when there is none; every task runs in one of them."""
    ran = map_tasks(os.getpid, [{}, {}], 2)
    pids = sorted(pool_module._executor._processes)
    assert len(pids) == 2 and set(ran) <= set(pids)
    return pids


def _failing_group(spec, fail_pan_id, **_campaign):
    if spec.pans[0].pan_id == fail_pan_id:
        raise RuntimeError(f"group of {fail_pan_id:#06x} failed")


@pytest.fixture()
def no_pool():
    """Start without a pool, so the test sees the workers its own first
    fanned-out call forks."""
    pool_module._shutdown()


@pytest.fixture()
def two_pans():
    return make_fleet(num_nodes=24, num_pans=2, seed=2, channel_reuse=True)


def _no_submit(*args, **kwargs):
    raise AssertionError("the process pool was used")


def _refused_submit(fn, tasks, processes):
    raise AssertionError(f"{len(tasks)} tasks for {processes} processes")


@pytest.mark.usefixtures("no_pool")
class TestInProcess:
    def test_zero_length_runs_start_no_pool(self, two_pans, monkeypatch):
        monkeypatch.setattr(pool_module, "_submit", _no_submit)
        for chaos in (None, "harsh"):
            result = run_fleet_campaign(two_pans, duration_s=0.0, chaos=chaos)
            assert result.workers == 1 and result.ledger_balanced

    @pytest.mark.skipif(default_workers(2) < 2, reason="one usable CPU")
    def test_other_default_runs_do_start_one(self, two_pans, monkeypatch):
        # Both sub-fleets go to a pool of two; the caller runs neither.
        monkeypatch.setattr(pool_module, "_submit", _refused_submit)
        for chaos in (None, "dropout"):
            with pytest.raises(AssertionError, match="2 tasks for 2 processes"):
                run_fleet_campaign(
                    two_pans, attack=False, duration_s=0.05, chaos=chaos
                )


@pytest.mark.skipif(default_workers(2) < 2, reason="one usable CPU")
@pytest.mark.usefixtures("no_pool")
class TestReusedPool:
    def test_campaigns_share_one_worker(self, two_pans):
        """Campaigns and Table III sweeps fan out to one pool of two
        workers, so neither replaces the other's."""
        run_fleet_campaign(two_pans, attack=False, duration_s=0.05)
        pids = _worker_pids()
        run_table3(frames=1, channels=(11,), workers=2)
        run_fleet_campaign(
            two_pans, attack=False, duration_s=0.05, chaos="dropout"
        )
        assert _worker_pids() == pids

    def test_a_killed_worker_is_replaced_on_the_next_call(self, two_pans):
        kwargs = dict(attack=False, duration_s=0.05)
        serial = run_fleet_campaign(two_pans, workers=1, **kwargs)
        pids = _worker_pids()
        os.kill(pids[0], signal.SIGKILL)
        assert run_fleet_campaign(two_pans, **kwargs).to_dict() == serial.to_dict()
        assert set(_worker_pids()).isdisjoint(pids)


@pytest.mark.skipif(default_workers(2) < 2, reason="one usable CPU")
@pytest.mark.parametrize(
    "fail_pan_id", [0x1000, 0x1001], ids=["first-group", "second-group"]
)
def test_no_process_outlives_a_failing_group(
    no_pool, two_pans, fail_pan_id, monkeypatch
):
    """A failing group raises and leaves the pool as it was: the next
    campaign equals serial on the same workers, and once the pool is shut
    down (as at interpreter exit) no child process is left."""
    kwargs = dict(attack=False, duration_s=0.05, chaos="harsh")
    serial = run_fleet_campaign(two_pans, workers=1, **kwargs)
    pids = _worker_pids()
    with monkeypatch.context() as patch:
        failing = functools.partial(_failing_group, fail_pan_id=fail_pan_id)
        patch.setattr(fleet_module, "_run_group", failing)
        with pytest.raises(RuntimeError, match=f"{fail_pan_id:#06x}"):
            run_fleet_campaign(two_pans, workers=2, **kwargs)
    assert sorted(c.pid for c in multiprocessing.active_children()) == pids
    assert run_fleet_campaign(two_pans, **kwargs).to_dict() == serial.to_dict()
    assert _worker_pids() == pids
    pool_module._shutdown()
    assert multiprocessing.active_children() == []


_EXIT_SCRIPT = """
from repro.experiments import pool
from repro.experiments.fleet import run_fleet_campaign
from repro.zigbee.fleet import make_fleet

spec = make_fleet(num_nodes=24, num_pans=2, seed=2, channel_reuse=True)
assert run_fleet_campaign(spec, duration_s=0.05).workers == 2
print(*pool._executor._processes)
"""


@pytest.mark.skipif(default_workers(2) < 2, reason="one usable CPU")
def test_no_worker_outlives_the_interpreter():
    src = Path(fleet_module.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_EXIT_SCRIPT)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
        check=True,
    )
    pids = [int(word) for word in done.stdout.split()]
    assert len(pids) == 2 and os.getpid() not in pids

    def alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    # The interpreter joined its workers before it exited.
    assert not any(alive(pid) for pid in pids)
