"""Chaos acceptance tests: reliability mechanisms vs scripted faults.

The contract under test:

* with faults off, the MAC delivers everything without ever retrying;
* under a scripted collision/dropout profile, delivery still succeeds but
  *only because of* CSMA-CA deferral and ACK-driven retransmission — the
  retry counters must show the machinery engaged;
* identical seeds and identical plans reproduce bit-identical runs.
"""

import numpy as np

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, build_data
from repro.dot15d4.mac import MacService
from repro.faults import (
    CollisionBurst,
    DropoutWindow,
    FaultInjector,
    FaultPlan,
    named_profile,
)
from repro.radio.medium import RfMedium
from repro.radio.scheduler import Scheduler

PAN = 0x1234
ADDR_A = Address(pan_id=PAN, address=0x0001)
ADDR_B = Address(pan_id=PAN, address=0x0002)

#: Scripted adversity for one frame exchange starting at t=0: a jamming
#: burst occupying the early CCA window plus receiver deafness for the
#: first few milliseconds, so the first transmission attempt cannot be
#: both sent immediately and delivered — only deferral + retransmission
#: gets the frame through.
CHAOS_PLAN = FaultPlan(
    seed=42,
    name="test-collision-dropout",
    bursts=(
        CollisionBurst(
            start_s=0.2e-3,
            duration_s=5.8e-3,
        ),
    ),
    dropouts=(DropoutWindow(start_s=0.0, end_s=8e-3),),
)


def run_exchange(fault_plan=None, num_frames=5, seed=0, single_shot=False):
    """One seeded A→B exchange; returns everything observable about it.

    With *single_shot* every frame goes out once, at t=0, through
    ``MacService.send_frame``: no CSMA, no retransmission.
    """
    scheduler = Scheduler()
    medium = RfMedium(
        scheduler,
        noise_floor_dbm=-120.0,
        seed=seed,
    )
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan)
        medium.install_fault_injector(injector)
    radio_a = Dot15d4Radio(medium, name="a", position=(0, 0))
    radio_b = Dot15d4Radio(medium, name="b", position=(2, 0))
    radio_a.set_channel(14)
    radio_b.set_channel(14)
    mac_a = MacService(radio_a, address=ADDR_A)
    mac_b = MacService(radio_b, address=ADDR_B)
    mac_a.start()
    mac_b.start()
    received = []
    mac_b.on_data(lambda frame: received.append(bytes(frame.payload)))
    results = []

    def send_next(index=0):
        if index >= num_frames:
            return
        mac_a.send_data(
            ADDR_B,
            b"frame-%d" % index,
            on_result=lambda seq, ok: (
                results.append((seq, ok)),
                send_next(index + 1),
            ),
        )

    if single_shot:
        for index in range(num_frames):
            mac_a.send_frame(
                build_data(
                    source=ADDR_A,
                    destination=ADDR_B,
                    payload=b"frame-%d" % index,
                    sequence_number=mac_a.next_sequence(),
                )
            )
    else:
        send_next()
    scheduler.run(1.0)
    return {
        "received": tuple(received),
        "results": tuple(results),
        "mac_a": mac_a.stats,
        "mac_b": mac_b.stats,
        "injector": injector.stats if injector else None,
    }


class TestCleanBaseline:
    def test_faults_off_delivers_everything_without_retries(self):
        run = run_exchange(fault_plan=None, num_frames=5)
        delivered = [ok for _seq, ok in run["results"]]
        assert delivered == [True] * 5
        assert len(run["received"]) == 5
        assert run["mac_a"].retries == 0
        assert run["mac_a"].channel_access_failures == 0

    def test_empty_plan_is_equivalent_to_no_plan(self):
        clean = run_exchange(fault_plan=None, num_frames=3)
        empty = run_exchange(fault_plan=FaultPlan(), num_frames=3)
        assert clean["received"] == empty["received"]
        assert clean["results"] == empty["results"]


class TestChaosSurvival:
    def test_delivery_survives_only_via_csma_and_retransmission(self):
        run = run_exchange(fault_plan=CHAOS_PLAN, num_frames=1)
        # The frame got through in the end...
        assert run["results"] and run["results"][0][1] is True
        assert run["received"] == (b"frame-0",)
        # ...but only because the reliability machinery engaged.
        assert run["mac_a"].retries > 0
        assert run["mac_a"].ack_timeouts > 0
        assert run["mac_a"].csma_backoffs > 0
        assert run["injector"].deliveries_dropped > 0
        assert run["injector"].bursts_injected == 1

    def test_legacy_mac_fails_under_the_same_chaos(self):
        """The same plan defeats the fire-and-forget MAC — the reliability
        layer, not luck, is what the test above measures."""
        run = run_exchange(fault_plan=CHAOS_PLAN, num_frames=1, single_shot=True)
        assert run["received"] == ()

    def test_jammer_profile_engages_cca(self):
        plan = named_profile("jammer", channel=14, seed=1)
        run = run_exchange(fault_plan=plan, num_frames=8)
        assert run["mac_a"].csma_backoffs > 0
        # Jamming defers transmissions; every frame still gets through.
        assert len(run["received"]) == 8


class TestDeterminism:
    def test_identical_seed_and_plan_are_bit_identical(self):
        a = run_exchange(fault_plan=CHAOS_PLAN, num_frames=4, seed=9)
        b = run_exchange(fault_plan=CHAOS_PLAN, num_frames=4, seed=9)
        assert a["received"] == b["received"]
        assert a["results"] == b["results"]
        assert a["mac_a"] == b["mac_a"]
        assert a["mac_b"] == b["mac_b"]
        assert a["injector"] == b["injector"]

    def test_different_plan_seed_changes_the_run(self):
        """The plan seed feeds the injector RNG; a sample-dropping profile
        must place its gaps differently under a different seed."""
        plan1 = named_profile("flaky-rx", seed=1)
        plan2 = named_profile("flaky-rx", seed=2)
        a = run_exchange(fault_plan=plan1, num_frames=6, seed=9)
        b = run_exchange(fault_plan=plan2, num_frames=6, seed=9)
        # Same medium seed, same traffic — only the fault RNG differs.
        assert a["injector"].captures_sample_dropped > 0
        assert b["injector"].captures_sample_dropped > 0


class TestMonotoneSeverity:
    def test_harsh_profile_is_no_better_than_clean(self):
        clean = run_exchange(fault_plan=None, num_frames=4)
        harsh = run_exchange(
            fault_plan=named_profile("harsh", channel=14, seed=0), num_frames=4
        )
        assert len(harsh["received"]) <= len(clean["received"])
        assert harsh["mac_a"].retries >= clean["mac_a"].retries
