"""The fleet benchmark's traffic, pinned to the committed outcome.

Fleetbench's ``correct`` compares a campaign only with the same code's
first campaign and its dense replay, which share every receive kernel: a
change that flips one receive decision would still pass it.  This test
runs each benchmark workload once at the pinned seed and compares the
sha256 of its ``fingerprint()`` with ``tests/golden/fleetbench_digests.json``.
Regenerate (only after an intentional behaviour change) with
``PYTHONPATH=src python tests/golden/generate.py``.
"""

import json

from tests.golden import generate


def test_benchmark_campaigns_match_pinned_digests():
    path = generate.GOLDEN_DIR / "fleetbench_digests.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(pinned["sha256"]) == ["chaos", "flood", "report"]
    assert generate.build_fleetbench_digests() == pinned


def test_one_row_delivery_campaign_matches_pinned_digest():
    """``chaos`` under ``harsh``: duplicated deliveries take the medium's
    one-row path (``tests/golden/fleetbench_harsh_digest.json``)."""
    path = generate.GOLDEN_DIR / "fleetbench_harsh_digest.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    assert generate.build_fleetbench_harsh_digest() == pinned
