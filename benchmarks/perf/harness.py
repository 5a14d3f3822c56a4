"""Timing harness and JSON report writer for the perf suite.

``BENCH_PR9.json`` schema (``wazabee-bench/1``)::

    {
      "schema": "wazabee-bench/1",
      "suite": "BENCH_PR9",
      "quick": false,
      "machine": {                # where the numbers were measured
        "python": "3.12.3",
        "numpy": "1.26.4",
        "scipy": "1.13.0",
        "cpu_count": 2,
        "platform": "Linux-6.8.0-x86_64-with-glibc2.39"
      },
      "benchmarks": {
        "<name>": {
          "metric": "<unit of 'value', e.g. frames_per_s | ms>",
          "value": 123.4,          # headline number (higher/lower per metric)
          "repeats": 5,            # timed repetitions behind the headline
          "extra": {...}           # bench-specific context (sizes, ratios)
        },
        ...
      }
    }

Every future PR appends a ``BENCH_PR<n>.json`` produced by the same
schema, so the perf trajectory of the hot paths stays comparable across
the whole stack.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

__all__ = [
    "BenchRecord",
    "best_of",
    "timings",
    "paired_timings",
    "median_ratio",
    "spread",
    "machine_fingerprint",
    "run_suite",
    "write_report",
    "compare_reports",
]

SCHEMA = "wazabee-bench/1"
SUITE = "BENCH_PR9"

#: Throughput floor, as a fraction of the committed baseline, below which
#: the suite exits non-zero (the CI regression gate).
REGRESSION_FLOOR = 0.7

#: ``(benchmark, extra key)`` pairs enforced against the baseline.  These
#: are same-machine throughput *ratios* (optimised vs reference
#: implementation timed back-to-back), so the gate is meaningful on CI
#: runners of any speed — absolute frames/s would track runner hardware,
#: not the code.  Each is the median of :data:`RATIO_READINGS` readings
#: (:func:`median_ratio`), so one reading taken while the host was busy
#: cannot trip the gate.
ENFORCED_RATIOS = (
    ("decode_throughput_vectorised", "speedup_vs_scalar"),
    ("modulate_cached", "speedup_vs_direct"),
    ("table3_sweep_wideband", "speedup_vs_sequential"),
    ("fleet_medium_scan", "speedup_vs_dense"),
    ("fleet_campaign_sharded", "speedup_vs_dense"),
)

#: Readings behind each enforced ratio.
RATIO_READINGS = 3


@dataclass
class BenchRecord:
    """One benchmark's headline number plus context."""

    name: str
    metric: str
    value: float
    repeats: int
    extra: Dict[str, float] = field(default_factory=dict)


def timings(fn: Callable[[], None], repeats: int = 5) -> List[float]:
    """Wall-clock of each of *repeats* runs of *fn*, in seconds."""
    elapsed: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return elapsed


def best_of(fn: Callable[[], None], repeats: int = 5) -> float:
    """Minimum wall-clock of *repeats* runs of *fn*, in seconds.

    The minimum — not the mean — estimates the cost of the code itself;
    everything above it is scheduler noise, which a loaded CI runner has
    plenty of.
    """
    return min(timings(fn, repeats))


def paired_timings(
    reference: Callable[[], None],
    optimised: Callable[[], None],
    repeats: int = 1,
) -> Tuple[List[float], List[float]]:
    """``(reference_s, optimised_s)``: :data:`RATIO_READINGS` readings of
    each side, each the best of *repeats* runs, in seconds.

    The two sides alternate reading by reading, so a stretch in which the
    host is busy slows both halves of one reading rather than every
    reading of one side.
    """
    reference_s: List[float] = []
    optimised_s: List[float] = []
    for _ in range(RATIO_READINGS):
        optimised_s.append(best_of(optimised, repeats))
        reference_s.append(best_of(reference, repeats))
    return reference_s, optimised_s


def median_ratio(numerators: List[float], denominators: List[float]) -> float:
    """The median of the per-reading ratios ``numerators[i] /
    denominators[i]`` — what the regression gate reads."""
    return statistics.median(n / d for n, d in zip(numerators, denominators))


def spread(seconds: List[float]) -> Dict[str, float]:
    """The median and minimum of repeated timings, in milliseconds."""
    return {
        "median_ms": statistics.median(seconds) * 1e3,
        "min_ms": min(seconds) * 1e3,
    }


def machine_fingerprint() -> Dict:
    """The interpreter, numeric libraries and host a report was run on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_suite(quick: bool = False) -> List[BenchRecord]:
    """Execute every registered benchmark and collect the records.

    *quick* shrinks workloads to smoke-test size (the CI job) while
    keeping every code path exercised.
    """
    from benchmarks.perf.bench_capture import bench_compose_capture
    from benchmarks.perf.bench_channelizer import bench_channelizer
    from benchmarks.perf.bench_decode import bench_decode_throughput
    from benchmarks.perf.bench_fleet import bench_fleet
    from benchmarks.perf.bench_modulate import bench_modulate
    from benchmarks.perf.bench_sync import bench_sync
    from benchmarks.perf.bench_table3_cell import bench_table3_cell

    records: List[BenchRecord] = []
    records.extend(bench_decode_throughput(quick=quick))
    records.extend(bench_modulate(quick=quick))
    records.extend(bench_sync(quick=quick))
    records.extend(bench_compose_capture(quick=quick))
    records.extend(bench_table3_cell(quick=quick))
    records.extend(bench_channelizer(quick=quick))
    records.extend(bench_fleet(quick=quick))
    return records


def compare_reports(current: Dict, baseline: Dict) -> List[str]:
    """Print a delta-vs-baseline summary; return regression messages.

    Every benchmark present in both reports gets a value-delta line.  The
    returned list holds one message per :data:`ENFORCED_RATIOS` entry of
    the current report that fell below :data:`REGRESSION_FLOOR` × its
    baseline, or that either report lacks — empty means the gate passes.
    A gate that cannot compare does not pass: a PR adding an enforced
    ratio regenerates the baseline with it.
    """
    base_benches = baseline.get("benchmarks", {})
    for name, body in sorted(current.get("benchmarks", {}).items()):
        base = base_benches.get(name)
        if base is None or "value" not in base:
            print(f"{name:40s} {body['value']:>14.3f} {body['metric']} (new)")
            continue
        delta = (
            (body["value"] - base["value"]) / base["value"] * 100.0
            if base["value"]
            else float("nan")
        )
        print(
            f"{name:40s} {body['value']:>14.3f} {body['metric']} "
            f"({delta:+.1f}% vs baseline {base['value']:.3f})"
        )
    regressions: List[str] = []
    for name, key in ENFORCED_RATIOS:
        body = current.get("benchmarks", {}).get(name)
        base = base_benches.get(name)
        if body is None:
            continue
        now = body.get("extra", {}).get(key)
        then = (base or {}).get("extra", {}).get(key)
        if now is None or then is None or then <= 0:
            regressions.append(
                f"{name}.{key} cannot be gated: missing from the "
                f"{'current report' if now is None else 'baseline'}"
            )
            continue
        if now < REGRESSION_FLOOR * then:
            regressions.append(
                f"{name}.{key} regressed: {now:.2f}x vs baseline "
                f"{then:.2f}x (floor {REGRESSION_FLOOR:.0%})"
            )
    return regressions


def write_report(
    records: List[BenchRecord],
    path: str,
    quick: bool = False,
    metrics: Optional[Dict] = None,
) -> Dict:
    """Serialise *records* to *path* in the ``wazabee-bench/1`` schema.

    *metrics*, when given, is the observability registry snapshot taken
    around the suite run; it lands in a top-level ``metrics`` block (the
    per-bench bodies keep their exact four-key shape).
    """
    report = {
        "schema": SCHEMA,
        "suite": SUITE,
        "quick": quick,
        "machine": machine_fingerprint(),
        "metrics": metrics or {},
        "benchmarks": {
            record.name: {
                "metric": record.metric,
                "value": record.value,
                "repeats": record.repeats,
                "extra": record.extra,
            }
            for record in records
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="run the WazaBee perf suite and write BENCH_PR9.json",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test workload sizes (CI); numbers are not comparable "
        "to full runs",
    )
    parser.add_argument(
        "--output",
        default="BENCH_PR9.json",
        help="report path (default: ./BENCH_PR9.json)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="previous wazabee-bench/1 report to diff against; exits "
        "non-zero when an enforced throughput ratio drops below "
        f"{int(REGRESSION_FLOOR * 100)}%% of it",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="additionally run one traced Table III cell (smoke size) and "
        "write its trace to FILE as JSON Lines",
    )
    args = parser.parse_args(argv)
    from repro.obs import scoped

    # Scope the suite so the report's metrics block reflects only this run;
    # Table III cells open their own nested scopes and stay self-contained.
    with scoped() as (_bus, registry):
        records = run_suite(quick=args.quick)
        metrics = registry.snapshot()
    report = write_report(
        records, args.output, quick=args.quick, metrics=metrics
    )
    regressions: List[str] = []
    if args.baseline is not None:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = compare_reports(report, baseline)
    else:
        for name, body in sorted(report["benchmarks"].items()):
            print(f"{name:40s} {body['value']:>14.3f} {body['metric']}")
    print(f"wrote {args.output}")
    for message in regressions:
        print(f"REGRESSION: {message}", file=sys.stderr)
    if args.trace is not None:
        from repro.experiments.table3 import run_table3_cell
        from repro.obs import write_events_jsonl

        cell = run_table3_cell(
            "nRF52832", "rx", channel=14, frames=5, seed=1, collect_trace=True
        )
        write_events_jsonl(cell.trace_events, args.trace)
        print(f"trace: {len(cell.trace_events)} events -> {args.trace}")
    return 1 if regressions else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
