"""End-to-end runs of the paper's attack scenarios (§VI, Figures 4–5).

Both harnesses stand up the §VI-A experimental setup — the XBee network
with PAN 0x1234 on channel 14 (sensor 0x0063 reporting every two seconds to
coordinator 0x0042) — and then launch the respective attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.attacks.scenario_a import SmartphoneInjectionAttack
from repro.attacks.scenario_b import FAKE_VALUE, AttackPhase, TrackerAttack
from repro.chips.nrf51822 import Nrf51822
from repro.chips.smartphone import SmartphoneBle
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address, build_data
from repro.experiments.environment import DISTANCE_M, Testbed, build_testbed
from repro.zigbee.network import CoordinatorNode, SensorNode
from repro.zigbee.xbee import SensorReading, XBEE_PAN_ID

__all__ = [
    "ZigbeeTestNetwork",
    "ScenarioAResult",
    "run_scenario_a",
    "ScenarioBResult",
    "run_scenario_b",
]

_PAN = XBEE_PAN_ID
SENSOR_ADDRESS = Address(pan_id=_PAN, address=0x0063)
COORDINATOR_ADDRESS = Address(pan_id=_PAN, address=0x0042)


@dataclass
class ZigbeeTestNetwork:
    """The §VI-A domotic network."""

    sensor: SensorNode
    coordinator: CoordinatorNode

    def start(self) -> None:
        self.sensor.start()
        self.coordinator.start()


def build_zigbee_network(
    testbed: Testbed,
    report_interval_s: float = 2.0,
    security_key: Optional[bytes] = None,
) -> ZigbeeTestNetwork:
    """Stand up the target network; *security_key* enables the §VII
    counter-measure (AES-CCM* link-layer security on both nodes)."""
    from repro.dot15d4.security import SecurityContext

    def context() -> Optional[SecurityContext]:
        return SecurityContext(key=security_key) if security_key else None

    coordinator = CoordinatorNode(
        testbed.medium,
        address=COORDINATOR_ADDRESS,
        position=(DISTANCE_M, 0.0),
        rng=testbed.device_rng(10),
        security=context(),
    )
    sensor = SensorNode(
        testbed.medium,
        address=SENSOR_ADDRESS,
        coordinator=COORDINATOR_ADDRESS,
        position=(DISTANCE_M, 1.5),
        report_interval_s=report_interval_s,
        value_source=lambda: 21,
        rng=testbed.device_rng(11),
        security=context(),
    )
    return ZigbeeTestNetwork(sensor=sensor, coordinator=coordinator)


# ---------------------------------------------------------------------------
# Scenario A
# ---------------------------------------------------------------------------


@dataclass
class ScenarioAResult:
    """Outcome of the smartphone injection run."""

    events_total: int
    events_on_target: int
    injected_received: int
    forged_entries: List[int] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.events_on_target / self.events_total if self.events_total else 0.0


def run_scenario_a(
    duration_s: float = 60.0,
    zigbee_channel: int = 14,
    forged_value: int = 1337,
    seed: int = 0,
) -> ScenarioAResult:
    """Inject forged sensor readings from the smartphone (Figure 4).

    The coordinator's display log is the observable: every forged reading
    that appears there was carried by an extended advertisement whose CSA#2
    draw hit the right channel *and* survived the air interface.
    """
    testbed = build_testbed(seed=seed)
    network = build_zigbee_network(testbed)
    network.start()
    phone = SmartphoneBle(
        testbed.medium,
        position=testbed.attacker_position,
        rng=testbed.device_rng(20),
    )
    forged = build_data(
        source=SENSOR_ADDRESS,
        destination=COORDINATOR_ADDRESS,
        payload=SensorReading(counter=0xBEEF, value=forged_value).to_payload(),
        sequence_number=0xA5,
        ack_request=False,
    )
    attack = SmartphoneInjectionAttack(
        phone, zigbee_channel=zigbee_channel, frame=forged
    )
    attack.start()
    testbed.scheduler.run(duration_s)
    attack.stop()
    forged_entries = [
        entry.counter
        for entry in network.coordinator.display
        if entry.value == forged_value
    ]
    return ScenarioAResult(
        events_total=attack.events_total,
        events_on_target=attack.events_on_target,
        injected_received=len(forged_entries),
        forged_entries=forged_entries,
    )


# ---------------------------------------------------------------------------
# Scenario B
# ---------------------------------------------------------------------------


@dataclass
class ScenarioBResult:
    """Outcome of the tracker attack run."""

    final_phase: AttackPhase
    network_channel: Optional[int]
    sensor_channel_after: int
    legitimate_entries: int
    spoofed_entries: int
    log: List[str] = field(default_factory=list)


def run_scenario_b(
    duration_s: float = 40.0,
    dos_channel: int = 26,
    seed: int = 0,
    security_key: Optional[bytes] = None,
) -> ScenarioBResult:
    """Run the four-stage tracker attack (Figure 5).

    Observables: the sensor ends up parked on *dos_channel* (denial of
    service), and the coordinator's display fills with the attacker's
    :data:`~repro.attacks.scenario_b.FAKE_VALUE` readings.  With
    *security_key* set the network runs the §VII cryptographic
    counter-measure and the injection steps should fail.
    """
    testbed = build_testbed(seed=seed)
    network = build_zigbee_network(testbed, security_key=security_key)
    network.start()
    tracker = Nrf51822(
        testbed.medium,
        position=testbed.attacker_position,
        rng=testbed.device_rng(30),
    )
    firmware = WazaBeeFirmware(tracker, testbed.scheduler)
    attack = TrackerAttack(
        firmware,
        target_pan_id=_PAN,
        dos_channel=dos_channel,
    )
    attack.run()
    testbed.scheduler.run(duration_s)
    legitimate = [e for e in network.coordinator.display if e.value != FAKE_VALUE]
    spoofed = [e for e in network.coordinator.display if e.value == FAKE_VALUE]
    return ScenarioBResult(
        final_phase=attack.phase,
        network_channel=attack.network.channel if attack.network else None,
        sensor_channel_after=network.sensor.radio.channel,
        legitimate_entries=len(legitimate),
        spoofed_entries=len(spoofed),
        log=[f"t={e.time:8.3f}s [{e.phase.value}] {e.message}" for e in attack.log],
    )
