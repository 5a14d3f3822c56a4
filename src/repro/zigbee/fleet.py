"""Fleet topology layer: many XBee nodes, many PANs, one medium.

The paper's attack scenarios live in two-node demos; realistic deployments
are buildings full of sensors.  This module builds parametric fleets —
hundreds of nodes across multiple PANs, each PAN a spatial cluster with a
mains-powered coordinator, optional battery-powered routers (one-hop mesh)
and battery-powered sensors reporting on a staggered schedule — as frozen
*specs* first, then instantiates them onto any medium.

Everything about a spec is a pure function of its parameters and seed:
node names, addresses, positions, phases and routing are computed
deterministically (per-PAN streams keyed by PAN index), so the same spec
instantiated on a dense medium, a sharded medium, or inside a worker
process produces the same fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dot15d4.frames import Address
from repro.radio.medium import RfMedium
from repro.zigbee.energy import Battery
from repro.zigbee.network import (
    CoordinatorNode,
    RouterNode,
    SensorNode,
    XBeeNode,
)

__all__ = [
    "FleetNodeSpec",
    "PanSpec",
    "FleetSpec",
    "Fleet",
    "make_fleet",
    "build_fleet",
]

#: Fleet sample rate: 2 samples/chip keeps the DSP per delivered frame
#: ~4x cheaper than the 16 Msps experiment default, which is what makes
#: hundreds of nodes tractable.  Must stay a multiple of 2 MHz (integer
#: samples per chip).
FLEET_SAMPLE_RATE = 4e6

#: Interaction radius.  Must cover the longest intra-PAN link (sensor ↔
#: router ↔ coordinator, at most the cluster diameter); kept well under
#: the inter-cluster spacing so co-channel PANs are spatially independent.
FLEET_RANGE_CUTOFF_M = 15.0

#: Battery capacity of every router and sensor (coordinators are mains
#: powered).
FLEET_BATTERY_J = 0.05
#: PAN clusters sit on a square grid this far apart.
CLUSTER_SPACING_M = 60.0
#: Sensors are scattered within this radius of their cluster's centre.
CLUSTER_RADIUS_M = 6.0

COORDINATOR_ADDRESS = 0x0001
ROUTER_ADDRESS_BASE = 0x0100
SENSOR_ADDRESS_BASE = 0x0200


@dataclass(frozen=True)
class FleetNodeSpec:
    """One node of a fleet, fully determined before construction."""

    name: str
    pan_id: int
    address: int
    role: str  # "coordinator" | "router" | "sensor"
    position: Tuple[float, float]
    uplink: Optional[int] = None  # in-PAN short address reports go to
    report_interval_s: float = 1.0
    phase_s: float = 0.0
    battery_j: Optional[float] = None  # None = mains powered


@dataclass(frozen=True)
class PanSpec:
    """One PAN: a channel, a cluster centre and its member nodes."""

    pan_id: int
    channel: int
    center: Tuple[float, float]
    nodes: Tuple[FleetNodeSpec, ...]

    @property
    def coordinator(self) -> FleetNodeSpec:
        return next(n for n in self.nodes if n.role == "coordinator")


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet, sized for :data:`FLEET_SAMPLE_RATE` and
    :data:`FLEET_RANGE_CUTOFF_M`."""

    seed: int
    pans: Tuple[PanSpec, ...]

    @property
    def num_nodes(self) -> int:
        return sum(len(pan.nodes) for pan in self.pans)


def make_fleet(
    num_nodes: int = 24,
    num_pans: int = 2,
    seed: int = 0,
    mesh: bool = True,
    channel_reuse: bool = False,
    base_channel: int = 11,
    report_interval_s: float = 1.0,
) -> FleetSpec:
    """Build a deterministic fleet spec.

    PAN clusters sit on a square grid :data:`CLUSTER_SPACING_M` apart; each
    has a mains-powered coordinator at its centre, battery-powered sensors
    scattered inside :data:`CLUSTER_RADIUS_M`, and (``mesh=True``) one router
    per ~8 members relaying half the sensors' reports.  ``channel_reuse``
    puts every PAN on ``base_channel`` (spatial-reuse workload — the
    interesting case for a sharded medium); otherwise PANs cycle through
    the 16 Zigbee channels so they are spectrally disjoint.
    """
    if num_nodes < 2 * num_pans:
        raise ValueError("need at least a coordinator and a sensor per PAN")
    grid = math.ceil(math.sqrt(num_pans))
    pans: List[PanSpec] = []
    base, extra = divmod(num_nodes, num_pans)
    for p in range(num_pans):
        count = base + (1 if p < extra else 0)
        pan_id = 0x1000 + p
        channel = base_channel if channel_reuse else base_channel + (p % 16)
        center = (
            (p % grid) * CLUSTER_SPACING_M,
            (p // grid) * CLUSTER_SPACING_M,
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(p,))
        )
        num_routers = max(1, (count - 1) // 8) if mesh and count >= 4 else 0
        num_sensors = count - 1 - num_routers
        nodes: List[FleetNodeSpec] = [
            FleetNodeSpec(
                name=f"p{p:02d}-coord",
                pan_id=pan_id,
                address=COORDINATOR_ADDRESS,
                role="coordinator",
                position=center,
            )
        ]
        for j in range(num_routers):
            angle = 2.0 * math.pi * j / num_routers
            r = 0.5 * CLUSTER_RADIUS_M
            nodes.append(
                FleetNodeSpec(
                    name=f"p{p:02d}-r{j:02d}",
                    pan_id=pan_id,
                    address=ROUTER_ADDRESS_BASE + j,
                    role="router",
                    position=(
                        round(center[0] + r * math.cos(angle), 3),
                        round(center[1] + r * math.sin(angle), 3),
                    ),
                    uplink=COORDINATOR_ADDRESS,
                    battery_j=FLEET_BATTERY_J,
                )
            )
        for k in range(num_sensors):
            angle = 2.0 * math.pi * k / max(1, num_sensors)
            r = float(rng.uniform(0.4, 1.0)) * CLUSTER_RADIUS_M
            # Alternate sensors between direct star links and the mesh
            # relays so both paths carry traffic.
            if num_routers and k % 2 == 1:
                uplink = ROUTER_ADDRESS_BASE + (k // 2) % num_routers
            else:
                uplink = COORDINATOR_ADDRESS
            nodes.append(
                FleetNodeSpec(
                    name=f"p{p:02d}-s{k:03d}",
                    pan_id=pan_id,
                    address=SENSOR_ADDRESS_BASE + k,
                    role="sensor",
                    position=(
                        round(center[0] + r * math.cos(angle), 3),
                        round(center[1] + r * math.sin(angle), 3),
                    ),
                    uplink=uplink,
                    report_interval_s=report_interval_s,
                    phase_s=round(
                        report_interval_s * k / max(1, num_sensors), 6
                    ),
                    battery_j=FLEET_BATTERY_J,
                )
            )
        pans.append(
            PanSpec(
                pan_id=pan_id,
                channel=channel,
                center=center,
                nodes=tuple(nodes),
            )
        )
    return FleetSpec(seed=seed, pans=tuple(pans))


class Fleet:
    """A spec instantiated onto a medium: live nodes, ready to start."""

    def __init__(self, spec: FleetSpec, medium: RfMedium):
        self.spec = spec
        self.medium = medium
        self.nodes: Dict[str, XBeeNode] = {}
        self.by_pan: Dict[int, List[XBeeNode]] = {}
        self.coordinators: Dict[int, CoordinatorNode] = {}
        for pan in spec.pans:
            members: List[XBeeNode] = []
            for ns in pan.nodes:
                node = self._build_node(pan, ns, medium)
                self.nodes[ns.name] = node
                members.append(node)
            self.by_pan[pan.pan_id] = members

    @staticmethod
    def _build_node(
        pan: PanSpec, ns: FleetNodeSpec, medium: RfMedium
    ) -> XBeeNode:
        address = Address(pan_id=ns.pan_id, address=ns.address)
        battery = (
            Battery(capacity_j=ns.battery_j) if ns.battery_j is not None else None
        )
        if ns.role == "coordinator":
            return CoordinatorNode(
                medium,
                address,
                name=ns.name,
                position=ns.position,
                battery=battery,
                channel=pan.channel,
            )
        if ns.role == "router":
            return RouterNode(
                medium,
                address,
                uplink=Address(pan_id=ns.pan_id, address=ns.uplink),
                name=ns.name,
                position=ns.position,
                battery=battery,
                channel=pan.channel,
            )
        if ns.role == "sensor":
            return SensorNode(
                medium,
                address,
                coordinator=Address(
                    pan_id=ns.pan_id, address=COORDINATOR_ADDRESS
                ),
                uplink=Address(pan_id=ns.pan_id, address=ns.uplink),
                name=ns.name,
                position=ns.position,
                report_interval_s=ns.report_interval_s,
                phase_s=ns.phase_s,
                battery=battery,
                channel=pan.channel,
            )
        raise ValueError(f"unknown role {ns.role!r}")

    def start_all(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop_all(self) -> None:
        for node in self.nodes.values():
            node.stop()


def build_fleet(spec: FleetSpec, medium: RfMedium) -> Fleet:
    """Instantiate *spec* onto *medium* (nodes constructed, not started)."""
    if medium.sample_rate != FLEET_SAMPLE_RATE:
        raise ValueError(
            f"medium sample rate {medium.sample_rate} differs from fleet "
            f"rate {FLEET_SAMPLE_RATE}"
        )
    fleet = Fleet(spec, medium)
    for pan in spec.pans:
        coord = fleet.nodes[pan.coordinator.name]
        assert isinstance(coord, CoordinatorNode)
        fleet.coordinators[pan.pan_id] = coord
    return fleet
