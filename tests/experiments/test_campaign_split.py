"""``scripts/campaign_split.py`` can still wrap every stage it names.

The script splits one fleet campaign by receive stage by wrapping
``src/`` entry points by owner and name, for the rest of its process: an
entry point that moved or went away makes it raise.  This test runs its
``main`` on one small campaign in a process of its own (the wrappers stay
installed) and checks that it exits cleanly and times the receive stages.
"""

import subprocess
import sys

from tests.golden import generate

SCRIPT = generate.GOLDEN_DIR.parents[1] / "scripts" / "campaign_split.py"

RECEIVE_STAGES = (
    "compose", "filter", "frontend", "lock", "slice", "despread", "tail",
    "hand-out", "mac.parse",
)


def test_chaos_campaign_splits_by_stage():
    run = subprocess.run(
        [
            sys.executable, str(SCRIPT),
            "--workload", "chaos", "--seed", "1", "--repeats", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    timed = {
        line.split()[0]: float(line.split()[1])
        for line in run.stdout.splitlines()[1:]
    }
    for stage in RECEIVE_STAGES:
        assert timed.get(stage, 0.0) > 0.0, stage
