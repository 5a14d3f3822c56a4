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
    def test_all_phases_complete(self, environment, tune):
        coordinator, sensor, firmware, sched = environment
        tune(SCAN_CHANNELS=(11, 12, 13, 14), FAKE_REPORT_INTERVAL_S=1.0,
             FAKE_REPORT_COUNT=3)
        attack = TrackerAttack(firmware, target_pan_id=PAN, dos_channel=26)
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

    def test_log_records_all_phases(self, environment, tune):
        _, _, firmware, sched = environment
        tune(SCAN_CHANNELS=(14,), FAKE_REPORT_COUNT=1, FAKE_REPORT_INTERVAL_S=0.5)
        attack = TrackerAttack(firmware)
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

    def test_legitimate_traffic_stops_after_dos(self, environment, tune):
        coordinator, sensor, firmware, sched = environment
        tune(SCAN_CHANNELS=(14,), FAKE_REPORT_COUNT=2, FAKE_REPORT_INTERVAL_S=1.0)
        attack = TrackerAttack(firmware)
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
    def test_no_network_fails(self, quiet_medium, scheduler, tune):
        tracker = Nrf51822(quiet_medium, rng=np.random.default_rng(1))
        firmware = WazaBeeFirmware(tracker, scheduler)
        tune(SCAN_CHANNELS=(11, 12))
        attack = TrackerAttack(firmware)
        done = []
        attack.run(on_complete=done.append)
        scheduler.run(2.0)
        assert done and done[0].phase is AttackPhase.FAILED
        assert "no network" in attack.log[-1].message

    def test_wrong_pan_filtered(self, environment, tune):
        _, _, firmware, sched = environment
        tune(SCAN_CHANNELS=(14,))
        attack = TrackerAttack(firmware, target_pan_id=0x9999)
        attack.run()
        sched.run(2.0)
        assert attack.phase is AttackPhase.FAILED

    def test_eavesdrop_timeout(self, quiet_medium, scheduler, tune):
        """A coordinator alone (no sensor traffic) stalls stage 2."""
        coordinator = CoordinatorNode(
            quiet_medium, address=COORD, position=(3, 0),
            rng=np.random.default_rng(1),
        )
        coordinator.start()
        tracker = Nrf51822(quiet_medium, rng=np.random.default_rng(2))
        firmware = WazaBeeFirmware(tracker, scheduler)
        tune(SCAN_CHANNELS=(14,), EAVESDROP_TIMEOUT_S=1.0)
        attack = TrackerAttack(firmware)
        attack.run()
        scheduler.run(5.0)
        assert attack.phase is AttackPhase.FAILED
        assert "timed out" in attack.log[-1].message
