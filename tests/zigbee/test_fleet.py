"""Fleet topology builder and campaign runner.

Covers the structural contract of :func:`make_fleet` (determinism,
addressing, mesh uplinks), and the campaign-level equivalences the
sharded medium promises: serial == process-sharded, sharded == dense
with the same cutoff, and a balanced delivery ledger after every run.
"""

import pytest

from repro.experiments.fleet import (
    format_fleet_report,
    run_fleet_campaign,
)
from repro.zigbee.fleet import (
    COORDINATOR_ADDRESS,
    ROUTER_ADDRESS_BASE,
    SENSOR_ADDRESS_BASE,
    make_fleet,
)


class TestMakeFleet:
    def test_deterministic(self):
        a = make_fleet(num_nodes=24, num_pans=2, seed=7)
        b = make_fleet(num_nodes=24, num_pans=2, seed=7)
        assert a == b

    def test_seed_changes_layout(self):
        a = make_fleet(num_nodes=24, num_pans=2, seed=7)
        b = make_fleet(num_nodes=24, num_pans=2, seed=8)
        assert a != b

    def test_structure_and_addressing(self):
        spec = make_fleet(num_nodes=24, num_pans=2, seed=0)
        assert spec.num_nodes == 24
        assert len(spec.pans) == 2
        names = [n.name for pan in spec.pans for n in pan.nodes]
        assert len(names) == len(set(names))
        for pan in spec.pans:
            coord = pan.coordinator
            assert coord.role == "coordinator"
            assert coord.address == COORDINATOR_ADDRESS
            for node in pan.nodes:
                if node.role == "router":
                    assert node.address >= ROUTER_ADDRESS_BASE
                elif node.role == "sensor":
                    assert node.address >= SENSOR_ADDRESS_BASE

    def test_channels_distinct_without_reuse(self):
        spec = make_fleet(num_nodes=16, num_pans=4, seed=0)
        channels = [pan.channel for pan in spec.pans]
        assert len(set(channels)) == 4
        reuse = make_fleet(num_nodes=16, num_pans=4, seed=0, channel_reuse=True)
        assert len({pan.channel for pan in reuse.pans}) == 1

    def test_mesh_routes_some_sensors_via_routers(self):
        spec = make_fleet(num_nodes=24, num_pans=2, seed=0, mesh=True)
        sensors = [
            n for pan in spec.pans for n in pan.nodes if n.role == "sensor"
        ]
        uplinks = {s.uplink for s in sensors}
        assert COORDINATOR_ADDRESS in uplinks
        assert any(u >= ROUTER_ADDRESS_BASE for u in uplinks)

    def test_no_mesh_has_no_routers(self):
        spec = make_fleet(num_nodes=24, num_pans=2, seed=0, mesh=False)
        roles = {n.role for pan in spec.pans for n in pan.nodes}
        assert "router" not in roles

    def test_rejects_undersized_fleet(self):
        with pytest.raises(ValueError):
            make_fleet(num_nodes=3, num_pans=2)


class TestCampaign:
    @pytest.fixture(scope="class")
    def spec(self):
        return make_fleet(num_nodes=12, num_pans=2, seed=4)

    def test_ledger_balances_and_report_renders(self, spec):
        result = run_fleet_campaign(
            spec, duration_s=1.0, attack=True, flood_rate_hz=80.0
        )
        assert result.ledger_balanced
        assert result.flood_frames > 0
        assert len(result.reports) == 12
        report = format_fleet_report(result)
        assert "balanced" in report and "UNBALANCED" not in report

    def test_router_forwarding_counted(self, spec):
        result = run_fleet_campaign(spec, duration_s=1.5, attack=False)
        routers = [r for r in result.reports if r.role == "router"]
        assert routers
        assert sum(r.forwarded for r in routers) > 0

    def test_serial_equals_process_sharded(self, spec):
        serial = run_fleet_campaign(spec, duration_s=1.0, workers=1)
        parallel = run_fleet_campaign(spec, duration_s=1.0, workers=2)
        assert [r.to_dict() for r in serial.reports] == [
            r.to_dict() for r in parallel.reports
        ]
        assert serial.alive_curve == parallel.alive_curve
        assert serial.battery_curve == parallel.battery_curve
        assert serial.ledger == parallel.ledger

    def test_sharded_equals_dense_with_cutoff(self, spec):
        sharded = run_fleet_campaign(spec, duration_s=1.0, medium_kind="sharded")
        dense = run_fleet_campaign(spec, duration_s=1.0, medium_kind="dense")
        assert [r.to_dict() for r in sharded.reports] == [
            r.to_dict() for r in dense.reports
        ]
        assert sharded.battery_curve == dense.battery_curve
        assert sharded.ledger == dense.ledger

    def test_attack_drains_more_battery(self, spec):
        quiet = run_fleet_campaign(spec, duration_s=1.5, attack=False)
        loud = run_fleet_campaign(
            spec, duration_s=1.5, attack=True, flood_rate_hz=120.0
        )
        assert loud.battery_curve[-1] < quiet.battery_curve[-1]
        assert quiet.flood_frames == 0
