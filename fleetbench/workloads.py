"""Fleet campaign workloads and the checks their outputs must pass.

Each workload is one fleet shape plus one campaign configuration.  The
``--seed`` argument picks the fleet's random layout (sensor placement,
medium noise streams) and its Zigbee channel; the size of the work is
fixed per workload so run times stay comparable across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.fleet import FleetCampaignResult, run_fleet_campaign
from repro.zigbee.fleet import FleetSpec, make_fleet

__all__ = [
    "Workload",
    "WORKLOADS",
    "fingerprint",
    "check_result",
    "differential_problem",
]


@dataclass(frozen=True)
class Workload:
    """A fleet shape (``make_fleet`` arguments) and a campaign to run on it.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    fleet: Dict = field(default_factory=dict)
    campaign: Dict = field(default_factory=dict)

    def spec(self, seed: int) -> FleetSpec:
        return make_fleet(seed=seed, base_channel=11 + seed % 16, **self.fleet)

    def run(
        self, spec: FleetSpec, medium_kind: str = "sharded", **overrides
    ) -> FleetCampaignResult:
        kwargs = dict(self.campaign, medium_kind=medium_kind)
        kwargs.update(overrides)
        return run_fleet_campaign(spec, **kwargs)


# All fleets reuse one channel across PANs: the spatial-reuse case the
# sharded medium's cell grid exists for.  At 208 nodes / 16 PANs every
# transmission reaches ~12 co-PAN radios out of 208 attached.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # Sensor reports, mesh forwarding and ACKs; nothing is lost.
            name="report",
            fleet=dict(num_nodes=208, num_pans=16, channel_reuse=True,
                       report_interval_s=0.5),
            campaign=dict(attack=False, duration_s=0.58,
                          sample_interval_s=0.29),
        ),
        Workload(
            # One WazaBee ack-request flooder per PAN: attacker TX,
            # victim RX/ACK and battery drain.
            name="flood",
            fleet=dict(num_nodes=208, num_pans=16, channel_reuse=True),
            campaign=dict(attack=True, flood_rate_hz=40.0, duration_s=0.05,
                          sample_interval_s=0.025),
        ),
        Workload(
            # Reporting under the dropout fault profile: suppressed
            # deliveries, MAC retries and backoffs.
            name="chaos",
            fleet=dict(num_nodes=48, num_pans=4, channel_reuse=True,
                       report_interval_s=0.25),
            campaign=dict(attack=False, chaos="dropout", duration_s=0.3,
                          sample_interval_s=0.15),
        ),
    )
}


def fingerprint(result: FleetCampaignResult) -> str:
    """Every per-node counter, curve and ledger entry, canonically encoded."""
    body = result.to_dict()
    body.pop("medium_kind")
    return json.dumps(body, sort_keys=True)


def check_result(workload: Workload, result: FleetCampaignResult) -> List[str]:
    """What is wrong with one campaign's outcome (empty when correct)."""
    problems: List[str] = []
    ledger = result.ledger
    if not result.ledger_balanced:
        problems.append(f"delivery ledger unbalanced: {ledger}")
    if ledger.get("medium.deliveries.delivered", 0) <= 0:
        problems.append("no frame was delivered")
    for report in result.reports:
        curve = report.battery_curve
        if any(b > a for a, b in zip(curve, curve[1:])):
            problems.append(f"{report.name}: battery charge increased")
            break
    if any(b > a for a, b in zip(result.alive_curve, result.alive_curve[1:])):
        problems.append("a depleted node came back to life")

    flooding = workload.campaign.get("attack", True)
    if flooding:
        if result.flood_frames <= 0:
            problems.append("the attacker sent no frame")
        if not result.battery_curve or result.battery_curve[-1] >= 1.0:
            problems.append("the flood drained no battery")
    else:
        if result.flood_frames:
            problems.append("flood frames in a campaign without attacker")
        if result.totals("delivered") <= 0:
            problems.append("no sensor report was delivered")
    if workload.campaign.get("chaos") == "dropout":
        if ledger.get("medium.deliveries.suppressed", 0) <= 0:
            problems.append("the dropout profile suppressed no delivery")
    return problems


def differential_problem(
    workload: Workload, spec: FleetSpec, sharded: FleetCampaignResult
) -> Optional[str]:
    """Run *workload* on the dense reference medium and compare outcomes."""
    dense = workload.run(spec, medium_kind="dense")
    if fingerprint(dense) != fingerprint(sharded):
        return "sharded medium outcome differs from the dense reference"
    return None
