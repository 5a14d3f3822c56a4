#!/usr/bin/env python3
"""Residual risk on encrypted networks: energy depletion via the pivot.

§VII of the paper notes that even with 802.15.4 cryptography enabled "the
attacker can still perform denial of service attacks", citing the
Ghost-in-Zigbee energy-depletion attack.  Here the network runs AES-CCM*
link-layer security — spoofed data never reaches the application — yet the
diverted BLE chip drains the sleepy sensor's battery anyway: every flood
frame forces a radio wake-up, a full reception and an acknowledgement,
all of which are spent *before* the security check can reject the payload.

Run:  python examples/energy_depletion.py
"""

import numpy as np

from repro.attacks.energy_depletion import FleetDepletionAttack
from repro.chips import Nrf52832
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address
from repro.dot15d4.security import SecurityContext
from repro.radio import RfMedium, Scheduler
from repro.zigbee.energy import Battery
from repro.zigbee.network import CoordinatorNode, SensorNode

KEY = bytes(range(16))
COORD = Address(pan_id=0x1234, address=0x42)
SENSOR = Address(pan_id=0x1234, address=0x63)


def run(attack: bool, duration_s: float = 30.0) -> Battery:
    scheduler = Scheduler()
    medium = RfMedium(scheduler)
    battery = Battery(capacity_j=0.05)  # scaled so depletion fits the demo
    coordinator = CoordinatorNode(
        medium, COORD, position=(3, 0),
        security=SecurityContext(key=KEY), rng=np.random.default_rng(1),
    )
    sensor = SensorNode(
        medium, SENSOR, COORD, position=(3, 1.5), battery=battery,
        security=SecurityContext(key=KEY), rng=np.random.default_rng(2),
    )
    coordinator.start()
    sensor.start()
    if attack:
        chip = Nrf52832(medium, position=(0, 0), rng=np.random.default_rng(3))
        firmware = WazaBeeFirmware(chip, scheduler)
        FleetDepletionAttack(
            firmware,
            targets=[SENSOR],
            spoofed_source=Address(pan_id=0x1234, address=0x99),
            channel=14,
            rate_hz=40.0,
        ).start()
    scheduler.run(duration_s)
    if attack and not battery.depleted:
        print("(note: battery survived this run — raise rate_hz or duration)")
    return battery


def main() -> None:
    print("simulating 30 s on an AES-CCM*-secured network...")
    baseline = run(attack=False)
    attacked = run(attack=True)
    print(f"baseline:  {baseline.consumed_j * 1e3:6.2f} mJ consumed "
          f"({baseline.fraction_remaining:.0%} battery left)")
    print(f"attacked:  {attacked.consumed_j * 1e3:6.2f} mJ consumed "
          f"({attacked.fraction_remaining:.0%} battery left, "
          f"depleted={attacked.depleted})")
    ratio = attacked.consumed_j / max(baseline.consumed_j, 1e-12)
    print(f"the flood multiplied the victim's energy burn by {ratio:.0f}x — "
          "encryption did not help.")


if __name__ == "__main__":
    main()
