"""Tests for the battery model and the energy-depletion attack."""

import numpy as np
import pytest

from repro.attacks.energy_depletion import FleetDepletionAttack
from repro.chips import Nrf52832
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address
from repro.zigbee.energy import TX_POWER_W, WAKEUP_COST_J, Battery, activity_cost
from repro.zigbee.network import CoordinatorNode, SensorNode

COORD = Address(pan_id=0x1234, address=0x42)
SENSOR = Address(pan_id=0x1234, address=0x63)


class TestEnergyProfile:
    def test_tx_cost_scales_with_airtime(self):
        assert activity_cost("tx", 2e-3) == pytest.approx(2 * activity_cost("tx", 1e-3))

    def test_rx_includes_wakeup(self):
        assert activity_cost("rx", 0.0) == WAKEUP_COST_J

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activity_cost("sleep", 1.0)


class TestBattery:
    def test_charges_and_depletes(self):
        battery = Battery(capacity_j=1e-3)
        battery.charge_activity("tx", 1e-2)  # 0.9 mJ
        assert not battery.depleted
        battery.charge_activity("tx", 1e-2)
        assert battery.depleted
        assert battery.remaining_j == 0.0

    def test_no_charge_after_depletion(self):
        battery = Battery(capacity_j=1e-6)
        battery.charge_activity("tx", 1.0)
        consumed = battery.consumed_j
        battery.charge_activity("tx", 1.0)
        assert battery.consumed_j == consumed

    def test_fraction_remaining(self):
        battery = Battery(capacity_j=2.0)
        battery.charge_activity("tx", 1.0 / TX_POWER_W)
        assert battery.fraction_remaining == pytest.approx(0.5)


class TestDepletionAttack:
    def _network(self, quiet_medium, capacity_j):
        battery = Battery(capacity_j=capacity_j)
        coordinator = CoordinatorNode(
            quiet_medium, COORD, position=(3, 0), rng=np.random.default_rng(1)
        )
        sensor = SensorNode(
            quiet_medium,
            SENSOR,
            COORD,
            position=(3, 1.5),
            battery=battery,
            rng=np.random.default_rng(2),
        )
        coordinator.start()
        sensor.start()
        return battery, sensor, coordinator

    def test_baseline_consumption_is_modest(self, quiet_medium, scheduler):
        battery, _, _ = self._network(quiet_medium, capacity_j=0.05)
        scheduler.run(20.0)
        assert not battery.depleted
        assert battery.fraction_remaining > 0.8

    def test_flood_depletes_battery(self, quiet_medium, scheduler):
        battery, sensor, _ = self._network(quiet_medium, capacity_j=0.05)
        drained = {"tx": 0.0, "rx": 0.0}
        charge = battery.charge_activity

        def tally(kind, duration_s):
            if not battery.depleted:
                drained[kind] += activity_cost(kind, duration_s)
            charge(kind, duration_s)

        battery.charge_activity = tally
        chip = Nrf52832(quiet_medium, position=(0, 0), rng=np.random.default_rng(3))
        firmware = WazaBeeFirmware(chip, scheduler)
        attack = FleetDepletionAttack(
            firmware,
            targets=[SENSOR],
            spoofed_source=Address(pan_id=0x1234, address=0x99),
            channel=14,
            rate_hz=40.0,
        )
        attack.start()
        scheduler.run(20.0)
        assert battery.depleted
        assert attack.frames_sent > 100
        assert "battery depleted" in sensor.config_log[-1]
        # Most of the drain is forced receptions, plus forced ACKs.
        assert drained["rx"] > drained["tx"] > 0

    def test_run_state_is_not_a_setting(self, quiet_medium, scheduler):
        chip = Nrf52832(quiet_medium, rng=np.random.default_rng(3))
        firmware = WazaBeeFirmware(chip, scheduler)
        with pytest.raises(TypeError):
            FleetDepletionAttack(
                firmware, targets=[SENSOR], spoofed_source=COORD, channel=14,
                frames_sent=5,
            )

    def test_attack_rate_validation(self, quiet_medium, scheduler):
        chip = Nrf52832(quiet_medium, rng=np.random.default_rng(3))
        firmware = WazaBeeFirmware(chip, scheduler)
        attack = FleetDepletionAttack(
            firmware, targets=[SENSOR], spoofed_source=COORD, channel=14, rate_hz=0
        )
        with pytest.raises(ValueError):
            attack.start()

    def test_stop_halts_flood(self, quiet_medium, scheduler):
        battery, _, _ = self._network(quiet_medium, capacity_j=1.0)
        chip = Nrf52832(quiet_medium, position=(0, 0), rng=np.random.default_rng(3))
        firmware = WazaBeeFirmware(chip, scheduler)
        attack = FleetDepletionAttack(
            firmware,
            targets=[SENSOR],
            spoofed_source=COORD,
            channel=14,
            rate_hz=40.0,
        )
        attack.start()
        scheduler.run(2.0)
        attack.stop()
        sent = attack.frames_sent
        scheduler.run(2.0)
        assert attack.frames_sent == sent
