"""Tests for attack-workflow reliability: per-stage retries with backoff,
structured failure diagnosis and the watchdog."""

import numpy as np
import pytest

from repro.attacks.scenario_b import AttackPhase, StageDiagnosis, TrackerAttack
from repro.chips import Nrf51822
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address
from repro.zigbee.network import CoordinatorNode, SensorNode

PAN = 0x1234
COORD = Address(pan_id=PAN, address=0x0042)
SENSOR = Address(pan_id=PAN, address=0x0063)


def make_firmware(medium, scheduler, seed=3):
    tracker = Nrf51822(medium, position=(0, 0), rng=np.random.default_rng(seed))
    return WazaBeeFirmware(tracker, scheduler)


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
    firmware = make_firmware(quiet_medium, scheduler)
    return coordinator, sensor, firmware, scheduler


class TestScanRetries:
    def test_scan_retries_before_failing(self, quiet_medium, scheduler, tune):
        firmware = make_firmware(quiet_medium, scheduler)
        tune(SCAN_CHANNELS=(11,), MAX_STAGE_RETRIES=2, RETRY_BACKOFF_S=0.05)
        attack = TrackerAttack(firmware)
        attack.run()
        scheduler.run(2.0)
        assert attack.phase is AttackPhase.FAILED
        assert attack.stage_attempts[AttackPhase.SCANNING] == 3
        retry_logs = [e for e in attack.log if "retrying" in e.message]
        assert len(retry_logs) == 2

    def test_backoff_doubles_between_attempts(self, quiet_medium, scheduler):
        firmware = make_firmware(quiet_medium, scheduler)
        attack = TrackerAttack(firmware)
        assert attack._stage_backoff(1) == pytest.approx(0.1)
        assert attack._stage_backoff(2) == pytest.approx(0.2)
        assert attack._stage_backoff(3) == pytest.approx(0.4)


class TestDiagnosis:
    def test_scan_failure_produces_diagnosis(self, quiet_medium, scheduler, tune):
        firmware = make_firmware(quiet_medium, scheduler)
        tune(SCAN_CHANNELS=(11, 12))
        attack = TrackerAttack(firmware)
        attack.run()
        scheduler.run(2.0)
        assert attack.phase is AttackPhase.FAILED
        diagnosis = attack.diagnosis
        assert isinstance(diagnosis, StageDiagnosis)
        assert diagnosis.stage is AttackPhase.SCANNING
        assert diagnosis.attempts == 2  # initial + one default retry
        assert "no network" in diagnosis.reason
        assert diagnosis.suggestion
        assert str(diagnosis)

    def test_eavesdrop_failure_produces_diagnosis(
        self, quiet_medium, scheduler, tune
    ):
        coordinator = CoordinatorNode(
            quiet_medium, address=COORD, position=(3, 0),
            rng=np.random.default_rng(1),
        )
        coordinator.start()
        firmware = make_firmware(quiet_medium, scheduler)
        tune(SCAN_CHANNELS=(14,), EAVESDROP_TIMEOUT_S=0.5)
        attack = TrackerAttack(firmware)
        attack.run()
        scheduler.run(5.0)
        assert attack.phase is AttackPhase.FAILED
        assert attack.diagnosis.stage is AttackPhase.EAVESDROPPING
        assert attack.diagnosis.attempts == 2
        assert "timed out" in attack.diagnosis.reason

    def test_successful_attack_has_no_diagnosis(self, environment, tune):
        _, _, firmware, sched = environment
        tune(SCAN_CHANNELS=(14,), FAKE_REPORT_COUNT=1, FAKE_REPORT_INTERVAL_S=0.5)
        attack = TrackerAttack(firmware)
        attack.run()
        sched.run(10.0)
        assert attack.phase is AttackPhase.DONE
        assert attack.diagnosis is None


class TestEavesdropRetry:
    def test_extended_window_catches_slow_sensor(
        self, quiet_medium, scheduler, tune
    ):
        """A sensor slower than one eavesdrop window is still caught by the
        doubled retry window instead of failing the attack."""
        coordinator = CoordinatorNode(
            quiet_medium, address=COORD, position=(3, 0),
            rng=np.random.default_rng(1),
        )
        sensor = SensorNode(
            quiet_medium,
            address=SENSOR,
            coordinator=COORD,
            position=(3, 1.5),
            report_interval_s=1.5,
            rng=np.random.default_rng(2),
        )
        coordinator.start()
        sensor.start()
        firmware = make_firmware(quiet_medium, scheduler)
        tune(SCAN_CHANNELS=(14,), EAVESDROP_TIMEOUT_S=1.0, FAKE_REPORT_COUNT=1,
             FAKE_REPORT_INTERVAL_S=0.5)
        attack = TrackerAttack(firmware)
        attack.run()
        scheduler.run(10.0)
        assert attack.phase is AttackPhase.DONE
        assert attack.stage_attempts[AttackPhase.EAVESDROPPING] == 2
        assert attack.sensor_address == SENSOR


class TestWatchdog:
    def test_watchdog_bounds_a_stalled_stage(self, quiet_medium, scheduler, tune):
        coordinator = CoordinatorNode(
            quiet_medium, address=COORD, position=(3, 0),
            rng=np.random.default_rng(1),
        )
        coordinator.start()
        firmware = make_firmware(quiet_medium, scheduler)
        # Eavesdropping would wait ~30s across retries; the watchdog caps
        # the whole workflow first.
        tune(SCAN_CHANNELS=(14,), EAVESDROP_TIMEOUT_S=10.0,
             MAX_ATTACK_DURATION_S=2.0)
        attack = TrackerAttack(firmware)
        done = []
        attack.run(on_complete=done.append)
        scheduler.run(60.0)
        assert done and done[0].phase is AttackPhase.FAILED
        assert attack.diagnosis is not None
        assert "watchdog" in attack.diagnosis.reason
        assert attack.diagnosis.stage is AttackPhase.EAVESDROPPING

    def test_watchdog_cancelled_on_success(self, environment, tune):
        _, _, firmware, sched = environment
        tune(SCAN_CHANNELS=(14,), FAKE_REPORT_COUNT=1, FAKE_REPORT_INTERVAL_S=0.5,
             MAX_ATTACK_DURATION_S=30.0)
        attack = TrackerAttack(firmware)
        attack.run()
        sched.run(10.0)
        assert attack.phase is AttackPhase.DONE
        assert attack._watchdog is None
