"""Table III decisions, pinned to the committed outcome.

Table III is otherwise checked only against itself (serial vs parallel,
cold vs warm cache).  This test runs two small grids — clean and under
the ``flaky-rx`` fault profile — and compares the sha256 of every cell's
tallies, counters and trace events with
``tests/golden/table3_digests.json``.  Regenerate (only after an
intentional behaviour change) with
``PYTHONPATH=src python tests/golden/generate.py``.
"""

import json

from tests.golden import generate


def test_table3_grids_match_pinned_digests():
    path = generate.GOLDEN_DIR / "table3_digests.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(pinned["sha256"]) == ["clean", "flaky-rx"]
    assert generate.build_table3_digests() == pinned
