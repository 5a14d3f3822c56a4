#!/usr/bin/env python3
"""CI smoke for the wideband 16-channel receiver.

Runs the real CLI — ``python -m repro table3 --wideband`` as a subprocess
on a reduced sweep (3 channels × 10 frames) — and checks that it exits 0,
renders a Table III whose cells equal the library run of the same sweep,
and that every cell accounts for every frame:
valid + corrupted + lost == frames.

The cell-by-cell diff against the reference band steps lives in the
tier-1 suite (``tests/experiments/test_table3_wideband.py``).

Run locally:  PYTHONPATH=src python scripts/wideband_smoke.py
"""

import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

CHANNELS = (11, 18, 26)
FRAMES = 10
#: Table III column order as ``format_table3`` prints it.
COLUMNS = (
    ("rx", "nRF52832"),
    ("rx", "CC1352-R1"),
    ("tx", "nRF52832"),
    ("tx", "CC1352-R1"),
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    cli = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "table3",
            "--wideband",
            "--channels",
            *[str(c) for c in CHANNELS],
            "--frames",
            str(FRAMES),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if cli.returncode != 0:
        sys.stderr.write(cli.stderr)
        fail(f"CLI wideband sweep exited {cli.returncode}")
    if "wideband sweep" not in cli.stdout or "Channel" not in cli.stdout:
        fail("CLI wideband sweep did not render a Table III")
    rows = {}
    for line in cli.stdout.splitlines():
        match = re.match(r"\s*(\d+) \|(.*)$", line)
        if match:
            rows[int(match.group(1))] = [
                int(v) for v in re.findall(r"\d+", match.group(2))
            ]
    if sorted(rows) != list(CHANNELS):
        fail(f"CLI table rows {sorted(rows)} != channels {list(CHANNELS)}")
    print(f"CLI sweep OK ({len(cli.stdout.splitlines())} output lines)")

    from repro.experiments.table3 import run_table3_wideband

    # The CLI's default seed; the printed cells must be this sweep's.
    result = run_table3_wideband(frames=FRAMES, channels=CHANNELS, seed=1)
    for channel in CHANNELS:
        printed = []
        for primitive, chip in COLUMNS:
            cell = result.cells[(chip, primitive)][channel]
            if cell.valid + cell.corrupted + cell.lost != FRAMES:
                fail(
                    f"cell {chip}/{primitive}/{channel}: "
                    f"{cell.valid}+{cell.corrupted}+{cell.lost} != {FRAMES}"
                )
            printed += [cell.valid, cell.corrupted]
        if rows[channel] != printed:
            fail(f"channel {channel}: CLI {rows[channel]} != sweep {printed}")
    print(f"frame accounting OK across {len(COLUMNS) * len(CHANNELS)} cells")
    print("wideband smoke OK")


if __name__ == "__main__":
    main()
