"""The fleet-scale energy-depletion campaign (Ghost-in-the-Wireless).

Scales the single-victim ``examples/energy_depletion.py`` demo into a
measured experiment: a multi-PAN fleet (see :mod:`repro.zigbee.fleet`)
runs its normal reporting traffic while one WazaBee attacker per PAN
floods ack-requested frames across every battery-powered member.  The
campaign records, per node, the delivered/dropped/retry counters and the
battery-drain curve, and per fleet, the alive-node curve, the time of the
first death, and the CSMA-CA congestion indicators (backoffs and channel
access failures) that collapse under the flood.

The physics of each run lives in its own observability scope, so the
delivery ledger read back from the scoped :class:`MetricsRegistry` counts
exactly this campaign: ``scheduled == delivered + skipped`` must balance
or the medium lost a frame.  Fleet-level summary samples are re-emitted
as ``fleet.sample`` events on the *caller's* trace bus.

Campaigns fan out over a process pool
(:func:`repro.experiments.pool.map_tasks`) by *independent groups*: two
PANs share a group when they share a channel and some device of one (a
node or its attacker) is within the medium's range cutoff of some
device of the other.  Channels are 5 MHz apart, outside the medium's
4 MHz delivery acceptance, and beyond the cutoff nothing is delivered,
mixed into a capture or sensed by CCA, so no transmission of one group
reaches a radio of another.  Per-device streams are keyed by name and
each group keeps the relative order of its own transmissions and
events, so the split is exact: per-node results are identical to the
serial run (the differential tests pin this).  Under a chaos profile
every group gets the one fault plan built from the whole fleet; the
plan's scripted bursts come from one more device, the jammer post,
which joins the groups it reaches, and only the sub-fleet holding it
emits them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.attacks.energy_depletion import FleetDepletionAttack
from repro.chips import Nrf52832
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.channels import (
    CHANNEL_BANDWIDTH_HZ,
    ZIGBEE_CHANNELS,
    channel_frequency_hz,
)
from repro.dot15d4.frames import Address
from repro.experiments.pool import default_workers, map_tasks
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, named_profile
from repro.obs import FLEET_SAMPLE, scoped
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.radio import RfMedium, Scheduler, ShardedRfMedium
from repro.zigbee.fleet import FLEET_RANGE_CUTOFF_M, FLEET_SAMPLE_RATE
from repro.zigbee.fleet import Fleet, FleetSpec, PanSpec, build_fleet
from repro.zigbee.network import RouterNode, SensorNode

__all__ = [
    "FleetNodeReport",
    "FleetCampaignResult",
    "independent_groups",
    "run_fleet_campaign",
    "format_fleet_report",
]

#: Source address the flood frames are spoofed from (any in-PAN short
#: address passes destination filtering; this one is never allocated).
SPOOFED_SOURCE_ADDRESS = 0x0FFF

#: Each medium kind's range cutoff (``None``: unbounded).
MEDIUM_CUTOFFS_M: Dict[str, Optional[float]] = {
    "sharded": FLEET_RANGE_CUTOFF_M,
    "dense": FLEET_RANGE_CUTOFF_M,
    "dense-unbounded": None,
}
MEDIUM_KINDS = tuple(MEDIUM_CUTOFFS_M)


@dataclass
class FleetNodeReport:
    """One node's campaign outcome."""

    name: str
    pan_id: int
    role: str
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    received: int = 0
    forwarded: int = 0
    retries: int = 0
    csma_backoffs: int = 0
    channel_access_failures: int = 0
    battery_curve: List[float] = field(default_factory=list)
    depleted_at: Optional[float] = None

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass
class FleetCampaignResult:
    """Merged campaign outcome (per-node reports + fleet curves + ledger)."""

    num_nodes: int
    num_pans: int
    duration_s: float
    attack: bool
    medium_kind: str
    workers: int
    flood_frames: int = field(default=0, init=False)
    sample_times: List[float] = field(default_factory=list, init=False)
    alive_curve: List[int] = field(default_factory=list, init=False)
    # fleet mean
    battery_curve: List[float] = field(default_factory=list, init=False)
    reports: List[FleetNodeReport] = field(default_factory=list, init=False)
    ledger: Dict[str, int] = field(default_factory=dict, init=False)

    @property
    def ledger_balanced(self) -> bool:
        """Every scheduled delivery was either delivered or skipped."""
        return self.ledger.get("medium.deliveries.scheduled", 0) == (
            self.ledger.get("medium.deliveries.delivered", 0)
            + self.ledger.get("medium.deliveries.skipped", 0)
        )

    @property
    def battery_powered(self) -> int:
        return sum(1 for r in self.reports if r.battery_curve)

    @property
    def first_death_s(self) -> Optional[float]:
        deaths = [r.depleted_at for r in self.reports if r.depleted_at is not None]
        return min(deaths) if deaths else None

    @property
    def alive_fraction(self) -> float:
        total = self.battery_powered
        if not total or not self.alive_curve:
            return 1.0
        return self.alive_curve[-1] / total

    def totals(self, field_name: str) -> int:
        return sum(getattr(r, field_name) for r in self.reports)

    def to_dict(self) -> Dict:
        return {
            "num_nodes": self.num_nodes,
            "num_pans": self.num_pans,
            "duration_s": self.duration_s,
            "attack": self.attack,
            "medium_kind": self.medium_kind,
            "flood_frames": self.flood_frames,
            "sample_times": self.sample_times,
            "alive_curve": self.alive_curve,
            "battery_curve": self.battery_curve,
            "first_death_s": self.first_death_s,
            "ledger": self.ledger,
            "ledger_balanced": self.ledger_balanced,
            "nodes": [r.to_dict() for r in self.reports],
        }


def _make_medium(
    spec: FleetSpec, scheduler: Scheduler, medium_kind: str
) -> RfMedium:
    medium_class = ShardedRfMedium if medium_kind == "sharded" else RfMedium
    return medium_class(
        scheduler,
        sample_rate=FLEET_SAMPLE_RATE,
        seed=spec.seed + 1,
        range_cutoff_m=MEDIUM_CUTOFFS_M[medium_kind],
    )


def _attacker_position(pan: PanSpec) -> Tuple[float, float]:
    return (pan.center[0] + 2.0, pan.center[1] + 1.0)


#: Margin (m) by which two PANs' bounding boxes must clear the range
#: cutoff before :func:`independent_groups` skips their device pairs.
_GAP_SLACK_M = 1e-6


def _bounding_box(points) -> Tuple[float, float, float, float]:
    xs, ys = zip(*points)
    return min(xs), min(ys), max(xs), max(ys)


def _box_gap(a, b) -> float:
    """The distance between two boxes, a lower bound on the distance
    between any point of one and any point of the other."""
    dx = max(0.0, b[0] - a[2], a[0] - b[2])
    dy = max(0.0, b[1] - a[3], a[1] - b[3])
    return math.hypot(dx, dy)


def _burst_channels(burst_hz: Sequence[float]) -> FrozenSet[int]:
    """The channels whose radios hear a burst at one of *burst_hz*, by the
    medium's in-band test for a fleet radio (a ``Dot15d4Radio``,
    ``CHANNEL_BANDWIDTH_HZ`` wide) on each channel."""
    return frozenset(
        ch
        for ch in ZIGBEE_CHANNELS
        if any(
            RfMedium.in_band(channel_frequency_hz(ch), CHANNEL_BANDWIDTH_HZ, hz)
            for hz in burst_hz
        )
    )


def independent_groups(
    spec: FleetSpec,
    range_cutoff_m: Optional[float],
    burst_hz: Sequence[float] = (),
) -> List[List[int]]:
    """The PANs of *spec* (by index) split into independent groups.

    Two PANs are joined when they share a channel and some pair of their
    devices (nodes and attacker posts) is within *range_cutoff_m*, the
    medium's own ``<=`` test; ``None`` joins every pair on one channel.
    Returns the connected components, each in spec order, ordered by
    their first PAN.

    *burst_hz* are the centres of a fault plan's scripted bursts.  When
    there are any, their source, the jammer post at
    :attr:`FaultInjector.jammer_position`, is one more device, index
    ``len(spec.pans)``, on every channel a burst is heard on.  It joins
    the group of each PAN it reaches, so all bursts are drawn in one
    group; reaching none, it joins the first group.
    """
    pans = spec.pans
    channels = [frozenset((pan.channel,)) for pan in pans]
    devices = [
        [ns.position for ns in pan.nodes] + [_attacker_position(pan)]
        for pan in pans
    ]
    if burst_hz:
        channels.append(_burst_channels(burst_hz))
        devices.append([FaultInjector.jammer_position])
    boxes = [_bounding_box(points) for points in devices]
    parent = list(range(len(devices)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def joined(i: int, j: int) -> bool:
        if range_cutoff_m is None:
            return True
        # No pair can be in range when the boxes are farther apart; the
        # slack keeps this skip clear of rounding.
        if _box_gap(boxes[i], boxes[j]) > range_cutoff_m + _GAP_SLACK_M:
            return False
        return any(
            math.dist(a, b) <= range_cutoff_m
            for a in devices[i]
            for b in devices[j]
        )

    for j in range(len(devices)):
        for i in range(j):
            if not channels[i] & channels[j] or root(i) == root(j):
                continue
            if joined(i, j):
                parent[root(j)] = root(i)
    groups: Dict[int, List[int]] = {}
    for i in range(len(devices)):
        groups.setdefault(root(i), []).append(i)
    members = list(groups.values())
    if burst_hz and len(members) > 1 and members[-1] == [len(pans)]:
        members[0].append(members.pop()[0])
    return members


def _pack(
    spec: FleetSpec, groups: List[List[int]], bins: int
) -> List[List[int]]:
    """Deal *groups*, in order, into at most *bins* bins, each group to
    the bin with the fewest nodes so far (the first on a tie); every bin
    lists its members in spec order (the jammer post, which has no
    nodes, last)."""
    sizes = [len(pan.nodes) for pan in spec.pans] + [0]
    members: List[List[int]] = [[] for _ in range(min(bins, len(groups)))]
    loads = [0] * len(members)
    for group in groups:
        k = loads.index(min(loads))
        members[k].extend(group)
        loads[k] += sum(sizes[i] for i in group)
    return [sorted(indices) for indices in members]


def _run_group(
    spec: FleetSpec,
    duration_s: float,
    attack: bool,
    flood_rate_hz: float,
    sample_interval_s: float,
    fault_plan: Optional[FaultPlan],
    medium_kind: str,
) -> Dict:
    """Simulate one (sub-)fleet start to finish in an isolated obs scope.

    Returns a picklable dict: the per-node reports (with their battery
    curves), the sample times, the flood frame count, and the scoped
    delivery-ledger counters.
    """
    with scoped() as (_bus, registry):
        scheduler = Scheduler()
        medium = _make_medium(spec, scheduler, medium_kind)
        if fault_plan is not None:
            medium.install_fault_injector(FaultInjector(fault_plan))
        fleet = build_fleet(spec, medium)
        attacks: List[FleetDepletionAttack] = []
        if attack:
            for pan in spec.pans:
                chip = Nrf52832(
                    medium,
                    name=f"attacker-{pan.pan_id:#06x}",
                    position=_attacker_position(pan),
                )
                firmware = WazaBeeFirmware(chip, scheduler)
                targets = [
                    Address(pan_id=pan.pan_id, address=ns.address)
                    for ns in pan.nodes
                    if ns.battery_j is not None
                ]
                attacks.append(
                    FleetDepletionAttack(
                        firmware,
                        targets=targets,
                        spoofed_source=Address(
                            pan_id=pan.pan_id, address=SPOOFED_SOURCE_ADDRESS
                        ),
                        channel=pan.channel,
                        rate_hz=flood_rate_hz,
                    )
                )

        times: List[float] = []
        battery_nodes = [
            fleet.nodes[ns.name]
            for pan in spec.pans
            for ns in pan.nodes
            if ns.battery_j is not None
        ]
        curves: Dict[str, List[float]] = {n.name: [] for n in battery_nodes}

        def sample() -> None:
            times.append(scheduler.now)
            for node in battery_nodes:
                curves[node.name].append(node.battery.fraction_remaining)
            if scheduler.now + sample_interval_s <= duration_s + 1e-9:
                scheduler.schedule(sample_interval_s, sample)

        fleet.start_all()
        for campaign in attacks:
            campaign.start()
        sample()  # t = 0 baseline, then self-rescheduling
        scheduler.run(duration_s)
        for campaign in attacks:
            campaign.stop()
        fleet.stop_all()
        # Drain: every delivery scheduled before the cut-off lands within a
        # frame airtime, and stopped nodes' residual MAC transactions
        # (ACK waits, retries, backoffs) resolve within milliseconds — one
        # extra second covers all of it, so the ledger balances exactly.
        scheduler.run_until(duration_s + 1.0)

        reports = [
            _node_report(fleet, ns, curves)
            for pan in spec.pans
            for ns in pan.nodes
        ]
        counters = registry.counter_values()
        ledger = {
            name: value
            for name, value in counters.items()
            if name.startswith("medium.")
        }
    return {
        "reports": reports,
        "times": times,
        "flood_frames": sum(c.frames_sent for c in attacks),
        "ledger": ledger,
    }


def _node_report(fleet: Fleet, ns, curves) -> FleetNodeReport:
    node = fleet.nodes[ns.name]
    stats = node.mac.stats
    forwarded = 0
    if isinstance(node, SensorNode):
        delivered, dropped = node.reports_delivered, node.reports_dropped
    elif isinstance(node, RouterNode):
        forwarded = node.forwarded
        delivered, dropped = node.forward_delivered, node.forward_dropped
    else:  # coordinator
        delivered, dropped = len(getattr(node, "display", [])), 0
    return FleetNodeReport(
        name=ns.name,
        pan_id=ns.pan_id,
        role=ns.role,
        sent=stats.sent_frames,
        delivered=delivered,
        dropped=dropped,
        received=stats.received_frames,
        forwarded=forwarded,
        retries=stats.retries,
        csma_backoffs=stats.csma_backoffs,
        channel_access_failures=stats.channel_access_failures,
        battery_curve=curves.get(ns.name, []),
        depleted_at=node.depleted_at,
    )


def run_fleet_campaign(
    spec: FleetSpec,
    duration_s: float = 5.0,
    attack: bool = True,
    flood_rate_hz: float = 200.0,
    medium_kind: str = "sharded",
    workers: Optional[int] = None,
    sample_interval_s: float = 0.5,
    chaos: Optional[str] = None,
) -> FleetCampaignResult:
    """Run the depletion campaign over *spec* and merge the results.

    The PANs' :func:`independent_groups` are packed into at most
    *workers* node-balanced sub-fleets; more than one run in the reused
    worker pool, one process each, while this process waits.  ``None`` means
    :func:`~repro.experiments.pool.default_workers` of the group count,
    except that a zero-length run stays in this process.

    A *chaos* profile is built once, targeted at the first PAN's
    channel, and every sub-fleet installs it.  Its per-capture and
    per-delivery faults are keyed by receiver name and its dropouts and
    CFO by time, so they split exactly.  Its scripted bursts draw from
    one stream in time order: the jammer post is grouped with the PANs
    it reaches, and only the sub-fleet holding it installs the bursts,
    so each is drawn and counted once, as in the serial run.
    """
    if medium_kind not in MEDIUM_KINDS:
        raise ValueError(
            f"unknown medium kind {medium_kind!r}; choose from {MEDIUM_KINDS}"
        )
    plan = None
    if chaos is not None:
        plan = named_profile(chaos, channel=spec.pans[0].channel, seed=spec.seed)
    if workers is None and duration_s == 0:
        workers = 1
    if workers == 1:
        parts = [(spec, plan)]
    else:
        bursts = plan.bursts if plan is not None else ()
        groups = independent_groups(
            spec, MEDIUM_CUTOFFS_M[medium_kind], [b.center_hz for b in bursts]
        )
        if workers is None:
            workers = default_workers(len(groups))
        jammer = len(spec.pans)
        quiet = plan if not bursts else dataclasses.replace(plan, bursts=())
        parts = [
            (
                FleetSpec(
                    spec.seed, tuple(spec.pans[i] for i in members if i != jammer)
                ),
                plan if jammer in members else quiet,
            )
            for members in _pack(spec, groups, workers)
        ]
    common = dict(
        duration_s=duration_s,
        attack=attack,
        flood_rate_hz=flood_rate_hz,
        sample_interval_s=sample_interval_s,
        medium_kind=medium_kind,
    )
    outcomes = map_tasks(
        _run_group,
        [dict(spec=sub, fault_plan=sub_plan, **common) for sub, sub_plan in parts],
        workers,
    )
    return _merge_outcomes(spec, outcomes, workers=len(parts), **common)


def _merge_outcomes(
    spec: FleetSpec,
    outcomes: List[Dict],
    workers: int,
    duration_s: float,
    attack: bool,
    flood_rate_hz: float,
    sample_interval_s: float,
    medium_kind: str,
) -> FleetCampaignResult:
    result = FleetCampaignResult(
        num_nodes=spec.num_nodes,
        num_pans=len(spec.pans),
        duration_s=duration_s,
        attack=attack,
        medium_kind=medium_kind,
        workers=workers,
    )
    reports: Dict[str, FleetNodeReport] = {}
    for outcome in outcomes:
        result.flood_frames += outcome["flood_frames"]
        if not result.sample_times:
            result.sample_times = list(outcome["times"])
        reports.update((r.name, r) for r in outcome["reports"])
        for name, value in outcome["ledger"].items():
            result.ledger[name] = result.ledger.get(name, 0) + value
    # Fleet order is spec order, regardless of which group ran each node.
    result.reports = [
        reports[ns.name] for pan in spec.pans for ns in pan.nodes
    ]
    pan_curves = [
        [
            reports[ns.name].battery_curve
            for ns in pan.nodes
            if ns.battery_j is not None
        ]
        for pan in spec.pans
    ]
    battery_total = result.battery_powered
    for i in range(len(result.sample_times)):
        # Per-PAN partial sums added in spec order: the float sum does not
        # depend on how the PANs were split (an explicit loop, since
        # ``sum`` may compensate).  A depleted battery reads exactly 0.0.
        alive, battery = 0, 0.0
        for curves in pan_curves:
            partial = 0.0
            for curve in curves:
                partial += curve[i]
                alive += curve[i] > 0.0
            battery += partial
        result.alive_curve.append(alive)
        result.battery_curve.append(
            battery / battery_total if battery_total else 1.0
        )
    _export_summary(result)
    return result


def _export_summary(result: FleetCampaignResult) -> None:
    """Re-emit fleet-level curves on the caller's bus/registry."""
    bus = _current_bus()
    if bus.active:
        for t, alive, battery in zip(
            result.sample_times, result.alive_curve, result.battery_curve
        ):
            bus.emit(
                FLEET_SAMPLE,
                time=t,
                alive=alive,
                battery_fraction=round(battery, 6),
                nodes=result.num_nodes,
            )
    registry = _current_metrics()
    registry.counter("fleet.reports.delivered").inc(result.totals("delivered"))
    registry.counter("fleet.reports.dropped").inc(result.totals("dropped"))
    registry.counter("fleet.mac.retries").inc(result.totals("retries"))
    registry.counter("fleet.flood.frames").inc(result.flood_frames)
    registry.gauge("fleet.alive_fraction").set(result.alive_fraction)


def format_fleet_report(result: FleetCampaignResult) -> str:
    """Human-readable campaign summary (the `repro fleet` output body)."""
    lines = [
        f"fleet campaign: {result.num_nodes} nodes / {result.num_pans} PANs, "
        f"{result.duration_s:g} s simulated, medium={result.medium_kind}, "
        f"attack={'on' if result.attack else 'off'}",
        f"  reports delivered/dropped: {result.totals('delivered')}"
        f"/{result.totals('dropped')}",
        f"  MAC retries: {result.totals('retries')}, CSMA backoffs: "
        f"{result.totals('csma_backoffs')}, channel-access failures: "
        f"{result.totals('channel_access_failures')}",
        f"  flood frames injected: {result.flood_frames}",
    ]
    if result.battery_powered:
        lines.append(
            f"  battery nodes alive at end: {result.alive_curve[-1]}"
            f"/{result.battery_powered} "
            f"(mean battery {result.battery_curve[-1]:.1%})"
        )
        first = result.first_death_s
        lines.append(
            "  first death: "
            + (f"{first:.2f} s" if first is not None else "none")
        )
    lines.append(
        "  ledger: scheduled="
        f"{result.ledger.get('medium.deliveries.scheduled', 0)} delivered="
        f"{result.ledger.get('medium.deliveries.delivered', 0)} skipped="
        f"{result.ledger.get('medium.deliveries.skipped', 0)} -> "
        + ("balanced" if result.ledger_balanced else "UNBALANCED")
    )
    return "\n".join(lines)
