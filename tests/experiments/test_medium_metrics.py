"""The medium's registry mirrors its buffer pool and its delivery scan.

``medium.pool.hits`` / ``medium.pool.misses`` follow the pool's own
totals and ``medium.candidates`` sums the radios every transmission's
delivery scan considered.  They are gauges, not counters: a campaign's
counters are its delivery ledger, which the pinned digests hash.
"""

from repro.experiments import fleet as fleet_experiment
from repro.experiments.fleet import run_fleet_campaign
from repro.radio import ShardedRfMedium
from repro.zigbee.fleet import make_fleet


def test_small_campaign_exports_pool_and_scan_totals(monkeypatch):
    media = []
    make_medium = fleet_experiment._make_medium

    def recorded_medium(*args, **kwargs):
        medium = make_medium(*args, **kwargs)
        media.append(medium)
        return medium

    scanned = []
    delivery_candidates = ShardedRfMedium._delivery_candidates

    def counted_candidates(medium, tx):
        found = delivery_candidates(medium, tx)
        scanned.append(len(found))
        return found

    monkeypatch.setattr(fleet_experiment, "_make_medium", recorded_medium)
    monkeypatch.setattr(
        ShardedRfMedium, "_delivery_candidates", counted_candidates
    )
    spec = make_fleet(
        num_nodes=12, num_pans=2, seed=1, channel_reuse=True,
        report_interval_s=0.1,
    )
    # harsh duplicates deliveries, so the one-row path acquires too.  One
    # process, so the one medium recorded here is the whole campaign's.
    result = run_fleet_campaign(
        spec, duration_s=0.2, attack=False, sample_interval_s=0.1,
        chaos="harsh", workers=1,
    )
    assert result.ledger["medium.deliveries.duplicated"] > 0
    (medium,) = media
    gauges = medium.metrics.snapshot()["gauges"]
    pool = medium.buffer_pool
    assert pool.hits > 0 and pool.misses > 0
    assert gauges["medium.pool.hits"] == pool.hits
    assert gauges["medium.pool.misses"] == pool.misses
    assert sum(scanned) > 0
    assert gauges["medium.candidates"] == sum(scanned)
    # The ledger (every counter) carries none of them.
    assert not any(name.startswith("medium.pool") for name in result.ledger)
    assert "medium.candidates" not in result.ledger
