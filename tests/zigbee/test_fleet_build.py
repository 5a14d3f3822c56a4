"""Building a fleet costs only what its nodes use.

A fleet that sends nothing derives no per-device random stream, and each
radio is built on its PAN's channel and attached once: one shard-index
insertion per radio.
"""

import numpy as np

from repro.experiments.fleet import run_fleet_campaign
from repro.radio.scheduler import Scheduler
from repro.radio.shard import ShardedRfMedium
from repro.zigbee.fleet import (
    FLEET_RANGE_CUTOFF_M,
    FLEET_SAMPLE_RATE,
    build_fleet,
    make_fleet,
)


def report_fleet():
    """The 208-node, 16-PAN channel-reuse fleet of the report campaign."""
    return make_fleet(
        num_nodes=208,
        num_pans=16,
        seed=1,
        channel_reuse=True,
        base_channel=12,
        report_interval_s=0.5,
    )


def test_zero_length_campaign_derives_only_the_mediums_generator(monkeypatch):
    spec = report_fleet()
    derived = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        derived.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    result = run_fleet_campaign(spec, attack=False, duration_s=0.0)
    assert result.num_nodes == 208
    assert len(derived) <= 1


def test_build_indexes_each_radio_once_and_never_reindexes(monkeypatch):
    attached = []
    attach = ShardedRfMedium.attach

    def counting_attach(medium, radio):
        attached.append(radio)
        attach(medium, radio)

    monkeypatch.setattr(ShardedRfMedium, "attach", counting_attach)
    spec = report_fleet()
    medium = ShardedRfMedium(
        Scheduler(),
        sample_rate=FLEET_SAMPLE_RATE,
        seed=spec.seed + 1,
        range_cutoff_m=FLEET_RANGE_CUTOFF_M,
    )
    fleet = build_fleet(spec, medium)
    radios = [node.radio.transceiver for node in fleet.nodes.values()]
    assert len(attached) == len(set(attached)) == len(radios) == 208
    assert set(attached) == set(radios)
    # Positions are fixed, so nothing re-indexes: each radio sits in one
    # cell, its own.
    assert sum(len(members) for members in medium._cell_radios.values()) == 208
    for pan in spec.pans:
        for ns in pan.nodes:
            radio = fleet.nodes[ns.name].radio
            assert radio.channel == pan.channel
            t = radio.transceiver
            assert t in medium._cell_radios[medium.grid.cell_of(t.position)]
