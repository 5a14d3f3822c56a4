"""A/B two revisions on the fleet benchmark, in alternating pairs.

Run from a git checkout::

    python scripts/ab.py REV_A REV_B --seed 8 --pairs 10 --seconds 6

Each revision is checked out with ``git worktree add`` into a temporary
directory (local, no network); a revision that names an existing
directory is used as it is, so ``.`` compares a working tree that is not
committed yet.  Every pair runs ``fleetbench/run.py`` once per revision
and workload on one seed, the two sides in alternating order, so a slow
stretch of the host falls on both.  ``--table3 N`` also times N
alternating pairs of one Table III cell (nRF52832, ``rx``, channel 14,
100 frames, seed 1; each run is the median of five readings after a
warm-up), then runs one untimed 50-frame cell on the WiFi-overlapped
channel 18; the cells of a pair must decode the same (valid, corrupted)
tallies, or B's run counts as not correct.

Per workload and metric the script prints each side's median and
quartiles, the change of the medians, how many pairs B won, and whether
the median gap is wider than A's interquartile range; each side's summed
``failed``/``attempted`` campaigns and its count of runs not
``correct`` sit beside them, and the script exits 1 if any run was not
correct.  Which direction is better comes from ``BENCHMARK.json``.  It
only drives ``fleetbench/`` and ``BENCHMARK.json``; it never edits them.  ``--json FILE`` keeps every
run's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

#: An untimed cell on a WiFi-overlapped channel whose tally holds both
#: corrupted and lost frames (46 valid, 2 corrupted, 2 lost), so a change
#: that shifts frames between the two moves the tallies a pair compares;
#: the timed channel-14 cell decodes every frame.
WIFI_CELL = ("nRF52832", "tx", 18, 50, 1)

#: Times one 100-frame Table III cell five times after a warm-up (the
#: process-wide waveform and filter caches), reports the median, and
#: records each reading's (valid, corrupted) tallies, then the tallies of
#: :data:`WIFI_CELL`.
TABLE3_CELL = (
    "import json, statistics, time\n"
    "from repro.experiments.table3 import run_table3_cell\n"
    "def cell():\n"
    "    return run_table3_cell('nRF52832', 'rx', channel=14, frames=100, seed=1)\n"
    "cell()\n"
    "readings, tallies = [], []\n"
    "for _ in range(5):\n"
    "    start = time.perf_counter()\n"
    "    c = cell()\n"
    "    readings.append((time.perf_counter() - start) * 1e3)\n"
    "    tallies.append([c.valid, c.corrupted])\n"
    "chip, primitive, channel, frames, seed = %r\n"
    "w = run_table3_cell(chip, primitive, channel=channel, frames=frames, seed=seed)\n"
    "tallies.append([w.valid, w.corrupted])\n"
    "print(json.dumps({'metrics': {'table3_cell_wall_clock':\n"
    "                              statistics.median(readings)},\n"
    "                  'tallies': tallies}))\n"
) % (WIFI_CELL,)


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", help="baseline revision (or directory)")
    parser.add_argument("rev_b", help="candidate revision (or directory)")
    parser.add_argument(
        "--workloads", nargs="+", default=["report", "flood", "chaos"]
    )
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--table3", type=int, default=0, metavar="N",
        help="also time N alternating pairs of one Table III cell",
    )
    parser.add_argument("--repo", default=".", help="the git checkout")
    parser.add_argument("--json", metavar="FILE", help="write every run here")
    return parser.parse_args(argv)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def _checkout(repo: Path, rev: str, into: Path, made: List[Path]) -> Path:
    """A directory holding *rev*: the directory itself, or a worktree."""
    if Path(rev).is_dir():
        return Path(rev).resolve()
    _git(repo, "worktree", "add", "--detach", str(into), rev)
    made.append(into)
    return into


def _fleetbench(tree: Path, workload: str, args) -> Dict:
    result = subprocess.run(
        [
            sys.executable, "fleetbench/run.py",
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=str(tree), capture_output=True, text=True,
    )
    lines = result.stdout.strip().splitlines()
    if result.returncode or not lines:
        raise RuntimeError(f"{tree}: fleetbench {workload} failed\n{result.stderr}")
    run = json.loads(lines[-1])
    run["metrics"] = {name: body["value"] for name, body in run["metrics"].items()}
    return run


def _table3_cell(tree: Path) -> Dict:
    result = subprocess.run(
        [sys.executable, "-c", TABLE3_CELL],
        cwd=str(tree), capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=f"{tree / 'src'}:{tree}"),
    )
    # A cell that completes is correct; _report compares its tallies with
    # the other tree's.
    run = json.loads(result.stdout.strip().splitlines()[-1])
    return {"correct": True, "attempted": 1, "failed": 0, **run}


def _run(label: str, tree: Path, args) -> Dict:
    if label == "table3_cell":
        return _table3_cell(tree)
    return _fleetbench(tree, label, args)


def _directions(repo: Path) -> Dict[str, str]:
    declared = json.loads((repo / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"] + declared["per_layer"]
    directions = {m["name"]: m["better"] for m in metrics}
    directions["table3_cell_wall_clock"] = "lower"
    return directions


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _report(label: str, runs: Dict[str, List[Dict]], directions) -> int:
    """Print *label*'s table; return how many of its runs were not correct.

    A B run whose tallies differ from its pair's A run is not correct.
    """
    mismatched = sum(
        a.get("tallies") != b.get("tallies") for a, b in zip(runs["a"], runs["b"])
    )
    failures = {}
    incorrect = 0
    for side, side_runs in runs.items():
        failed = sum(run["failed"] for run in side_runs)
        attempted = sum(run["attempted"] for run in side_runs)
        wrong = sum(run["correct"] is not True for run in side_runs)
        if side == "b":
            wrong += mismatched
        failures[side] = f"{failed}/{attempted} | {wrong}"
        incorrect += wrong
    print(f"\n## {label}\n")
    print(
        "| metric | A median [q1, q3] | B median [q1, q3] | change "
        "| B wins | gap > A IQR | A failed/attempted | A incorrect "
        "| B failed/attempted | B incorrect |"
    )
    print("|---|---|---|---:|---:|---|---:|---:|---:|---:|")
    for name in runs["a"][0]["metrics"]:
        a = [run["metrics"][name] for run in runs["a"]]
        b = [run["metrics"][name] for run in runs["b"]]
        lower = directions.get(name, "lower") == "lower"
        a_q1, a_med, a_q3 = _quartiles(a)
        b_q1, b_med, b_q3 = _quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        change = f"{(b_med - a_med) / a_med:+.1%}" if a_med else "n/a"
        print(
            f"| {name} | {a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}] "
            f"| {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] | {change} "
            f"| {wins}/{len(a)} | {abs(b_med - a_med) > a_q3 - a_q1} "
            f"| {failures['a']} | {failures['b']} |"
        )
    return incorrect


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    repo = Path(_git(Path(args.repo), "rev-parse", "--show-toplevel"))
    directions = _directions(repo)
    workdir = Path(tempfile.mkdtemp(prefix="ab-"))
    made: List[Path] = []
    pairs = {workload: args.pairs for workload in args.workloads}
    if args.table3:
        pairs["table3_cell"] = args.table3
    results = {label: {"a": [], "b": []} for label in pairs}
    incorrect = 0
    try:
        trees = {
            "a": _checkout(repo, args.rev_a, workdir / "a", made),
            "b": _checkout(repo, args.rev_b, workdir / "b", made),
        }
        for pair in range(max(pairs.values())):
            order = ("a", "b") if pair % 2 == 0 else ("b", "a")
            for label, count in pairs.items():
                if pair < count:
                    for side in order:
                        results[label][side].append(_run(label, trees[side], args))
            print(f"pair {pair + 1} done", file=sys.stderr)
        print(f"A = {args.rev_a}, B = {args.rev_b}, seed {args.seed}")
        for label, runs in results.items():
            incorrect += _report(label, runs, directions)
        if args.json:
            Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    finally:
        for tree in made:
            _git(repo, "worktree", "remove", "--force", str(tree))
        shutil.rmtree(workdir, ignore_errors=True)
    if incorrect:
        print(f"error: {incorrect} runs were not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
