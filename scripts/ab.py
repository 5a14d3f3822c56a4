"""A/B two revisions on the fleet benchmark, in alternating pairs.

Run from a git checkout::

    python scripts/ab.py REV_A REV_B --seed 8 --pairs 10 --seconds 6

Each revision is checked out with ``git worktree add`` into a temporary
directory (local, no network); a revision that names an existing
directory is used as it is, so ``.`` compares a working tree that is not
committed yet.  Every pair runs ``fleetbench/run.py`` once per revision
and workload on one seed, the two sides in alternating order, so a slow
stretch of the host falls on both.  ``--table3 N`` also times N
alternating pairs of one Table III cell
(``benchmarks/perf/bench_table3_cell.py``).

Per workload and metric the script prints each side's median and
quartiles, the change of the medians, how many pairs B won, and whether
the median gap is wider than A's interquartile range.  Which direction is
better comes from ``BENCHMARK.json``.  It only drives ``fleetbench/`` and
``BENCHMARK.json``; it never edits them.  ``--json FILE`` keeps every
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

TABLE3_CELL = (
    "import json\n"
    "from benchmarks.perf.bench_table3_cell import bench_table3_cell\n"
    "record = bench_table3_cell()[0]\n"
    "print(json.dumps({'table3_cell_wall_clock': record.value}))\n"
)


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
    if run["correct"] is not True or run["failed"]:
        print(f"warning: {tree} {workload}: {run}", file=sys.stderr)
    return {name: body["value"] for name, body in run["metrics"].items()}


def _table3_cell(tree: Path) -> Dict:
    result = subprocess.run(
        [sys.executable, "-c", TABLE3_CELL],
        cwd=str(tree), capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=f"{tree / 'src'}:{tree}"),
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


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


def _report(label: str, runs: Dict[str, List[Dict]], directions) -> None:
    print(f"\n## {label}\n")
    print(
        "| metric | A median [q1, q3] | B median [q1, q3] | change "
        "| B wins | gap > A IQR |"
    )
    print("|---|---|---|---:|---:|---|")
    for name in runs["a"][0]:
        a = [run[name] for run in runs["a"]]
        b = [run[name] for run in runs["b"]]
        lower = directions.get(name, "lower") == "lower"
        a_q1, a_med, a_q3 = _quartiles(a)
        b_q1, b_med, b_q3 = _quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        change = f"{(b_med - a_med) / a_med:+.1%}" if a_med else "n/a"
        print(
            f"| {name} | {a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}] "
            f"| {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] | {change} "
            f"| {wins}/{len(a)} | {abs(b_med - a_med) > a_q3 - a_q1} |"
        )


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
            _report(label, runs, directions)
        if args.json:
            Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    finally:
        for tree in made:
            _git(repo, "worktree", "remove", "--force", str(tree))
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
