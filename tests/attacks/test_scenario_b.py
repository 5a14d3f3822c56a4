"""Tests for Scenario B — the tracker attack state machine."""

import numpy as np
import pytest

from repro.attacks.scenario_b import FAKE_VALUE, AttackPhase, TrackerAttack
from repro.chips import Nrf51822
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address
from repro.zigbee.network import CoordinatorNode, SensorNode

PAN = 0x1234
COORD = Address(pan_id=PAN, address=0x0042)
SENSOR = Address(pan_id=PAN, address=0x0063)


@pytest.fixture()
def environment(quiet_medium, scheduler):
    coordinator = CoordinatorNode(
        quiet_medium, address=COORD, position=(3, 0), rng=np.random.default_rng(1)
    )
    sensor = SensorNode(
        quiet_medium,
        address=SENSOR,
        coordinator=COORD,
        position=(3, 1.5),
        report_interval_s=1.0,
        rng=np.random.default_rng(2),
    )
    coordinator.start()
    sensor.start()
    tracker = Nrf51822(
        quiet_medium, position=(0, 0), rng=np.random.default_rng(3)
    )
    firmware = WazaBeeFirmware(tracker, scheduler)
    return coordinator, sensor, firmware, scheduler


class TestFullChain:
    def test_all_phases_complete(self, environment):
        coordinator, sensor, firmware, sched = environment
        attack = TrackerAttack(
            firmware,
            channels=(11, 12, 13, 14),
            target_pan_id=PAN,
            dos_channel=26,
            fake_report_interval_s=1.0,
            fake_report_count=3,
        )
        done = []
        attack.run(on_complete=done.append)
        sched.run(20.0)
        assert done and done[0].phase is AttackPhase.DONE
        assert attack.network.channel == 14
        assert attack.network.pan_id == PAN
        assert attack.sensor_address == SENSOR
        assert attack.coordinator_address == COORD
        # DoS: sensor moved away.
        assert sensor.radio.channel == 26
        # Spoofing: fake readings on the display.
        fake = [e for e in coordinator.display if e.value == FAKE_VALUE]
        assert len(fake) == 3

    def test_log_records_all_phases(self, environment):
        _, _, firmware, sched = environment
        attack = TrackerAttack(
            firmware, channels=(14,), fake_report_count=1,
            fake_report_interval_s=0.5,
        )
        attack.run()
        sched.run(10.0)
        phases = {entry.phase for entry in attack.log}
        assert {
            AttackPhase.SCANNING,
            AttackPhase.EAVESDROPPING,
            AttackPhase.AT_INJECTION,
            AttackPhase.SPOOFING,
            AttackPhase.DONE,
        } <= phases

    def test_legitimate_traffic_stops_after_dos(self, environment):
        coordinator, sensor, firmware, sched = environment
        attack = TrackerAttack(
            firmware, channels=(14,), fake_report_count=2,
            fake_report_interval_s=1.0,
        )
        attack.run()
        sched.run(15.0)
        dos_time = next(
            e.time for e in attack.log if e.phase is AttackPhase.AT_INJECTION
        )
        legit_after = [
            e for e in coordinator.display
            if e.value == 21 and e.time > dos_time + 1.0
        ]
        assert legit_after == []


class TestFailureModes:
    def test_no_network_fails(self, quiet_medium, scheduler):
        tracker = Nrf51822(quiet_medium, rng=np.random.default_rng(1))
        firmware = WazaBeeFirmware(tracker, scheduler)
        attack = TrackerAttack(firmware, channels=(11, 12))
        done = []
        attack.run(on_complete=done.append)
        scheduler.run(2.0)
        assert done and done[0].phase is AttackPhase.FAILED
        assert "no network" in attack.log[-1].message

    def test_wrong_pan_filtered(self, environment):
        _, _, firmware, sched = environment
        attack = TrackerAttack(firmware, channels=(14,), target_pan_id=0x9999)
        attack.run()
        sched.run(2.0)
        assert attack.phase is AttackPhase.FAILED

    def test_eavesdrop_timeout(self, quiet_medium, scheduler):
        """A coordinator alone (no sensor traffic) stalls stage 2."""
        coordinator = CoordinatorNode(
            quiet_medium, address=COORD, position=(3, 0),
            rng=np.random.default_rng(1),
        )
        coordinator.start()
        tracker = Nrf51822(quiet_medium, rng=np.random.default_rng(2))
        firmware = WazaBeeFirmware(tracker, scheduler)
        attack = TrackerAttack(
            firmware, channels=(14,), eavesdrop_timeout_s=1.0
        )
        attack.run()
        scheduler.run(5.0)
        assert attack.phase is AttackPhase.FAILED
        assert "timed out" in attack.log[-1].message
