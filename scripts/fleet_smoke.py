#!/usr/bin/env python3
"""CI smoke for the fleet campaign: the real CLI, a real 50-node fleet.

Runs ``python -m repro fleet`` as a subprocess — the exact operator
invocation — on a reduced 50-node / 4-PAN depletion campaign over the
sharded medium, with tracing and metrics enabled, then asserts the three
things a broken fleet stack cannot fake:

* exit code 0 (the CLI itself returns non-zero on an unbalanced ledger);
* the report declares the delivery ledger ``balanced``;
* the trace file carries ``fleet.sample`` JSONL records for every
  sampling instant, battery fraction monotonically non-increasing.

``--chaos PROFILE`` runs the same campaign under a named fault profile,
fanned out like the clean one: ``harsh`` adds capture truncation,
delivery duplication, collision bursts and dropouts, so zeroed capture
stretches and fault-transformed stack rows go through the real CLI.

Run locally:  PYTHONPATH=src python scripts/fleet_smoke.py [--chaos harsh]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

NODES = 50
PANS = 4
DURATION_S = 1.5


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chaos", metavar="PROFILE")
    args = parser.parse_args()
    chaos = ["--chaos", args.chaos] if args.chaos else []
    workdir = tempfile.mkdtemp(prefix="wazabee-fleet-")
    trace_path = os.path.join(workdir, "fleet_trace.jsonl")
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "fleet",
            "--nodes",
            str(NODES),
            "--pans",
            str(PANS),
            "--duration",
            str(DURATION_S),
            "--flood-rate",
            "100",
            "--medium",
            "sharded",
            "--trace",
            trace_path,
            "--metrics",
            *chaos,
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        fail(f"repro fleet exited {result.returncode}")
    if "balanced" not in result.stdout or "UNBALANCED" in result.stdout:
        fail("report does not declare a balanced delivery ledger")

    samples = []
    with open(trace_path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("event") == "fleet.sample":
                samples.append(record)
    if len(samples) < 2:
        fail(f"expected >=2 fleet.sample trace records, got {len(samples)}")
    fractions = [s["battery_fraction"] for s in samples]
    if any(b > a + 1e-9 for a, b in zip(fractions, fractions[1:])):
        fail(f"battery fraction increased over time: {fractions}")
    print(
        f"OK: {NODES} nodes / {PANS} PANs"
        f"{f', chaos {args.chaos}' if args.chaos else ''}, "
        f"{len(samples)} fleet samples, "
        f"battery {fractions[0]:.2f} -> {fractions[-1]:.2f}, ledger balanced"
    )


if __name__ == "__main__":
    main()
