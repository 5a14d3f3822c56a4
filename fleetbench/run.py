"""Fleet campaign benchmark: sharded-medium energy-depletion campaigns.

Run from the repository root::

    python3 fleetbench/run.py --workload report --seed 1 --seconds 10 --trace 0

One run builds the workload's fleet from ``--seed``, times the cold
set-up of the campaign world several times, then repeats the campaign
for ``--seconds`` wall seconds (a closed loop: the next campaign starts
when the previous one returns).  Every campaign must balance its
delivery ledger, pass the workload's checks and reproduce the first
campaign's outcome exactly; once per run the campaign is also replayed
on the dense reference medium, which must agree byte for byte.

Times are wall times scaled to a fixed reference CPU speed by
:class:`clock.ReferenceClock`, which keeps them comparable across the
speed swings of a shared host.  The last line of standard output is one
JSON object.  With ``--trace 0`` it holds the end-to-end metrics
(``campaign_ms``, the median campaign time, and ``setup_s``, the median
cold set-up time); with ``--trace 1`` the per-layer ones (median self
time per layer from :mod:`spans`, plus the campaign's counters).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 21


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cold_setup_s(clock, workload, seed: int) -> float:
    """Time to build the campaign world from nothing.

    Clears the process-wide waveform caches, then generates the fleet spec
    and runs a zero-length campaign: every node, attacker and medium index
    is constructed, started, stopped and drained, but no frame is sent.
    Garbage left by the previous set-up is collected first, so that its
    collection is not charged to this one.
    """
    from repro.dsp.gfsk import clear_waveform_caches

    clear_waveform_caches()
    gc.collect()
    _, elapsed = clock.time(
        lambda: workload.run(workload.spec(seed), duration_s=0.0)
    )
    return elapsed


def _ms(seconds: float) -> Dict:
    return {"value": seconds * 1e3, "unit": "ms"}


def _count(value: float, unit: str = "count") -> Dict:
    return {"value": value, "unit": unit}


def _layer_metrics(layers, samples, tracer, result, times) -> Dict[str, Dict]:
    """Median self time per layer, plus the (deterministic) counters."""
    metrics = {
        f"{layer}_ms": _ms(statistics.median(s.get(layer, 0.0) for s in samples))
        for layer in layers
    }
    metrics["traced_campaign_ms"] = _ms(statistics.median(times))
    hits = sum(pool.hits for pool in tracer.pools)
    misses = sum(pool.misses for pool in tracer.pools)
    ledger = result.ledger
    delivered = ledger.get("medium.deliveries.delivered", 0)
    metrics.update(
        {
            "radio.transmissions": _count(ledger.get("medium.transmissions", 0)),
            "radio.deliveries": _count(delivered),
            "radio.candidates_per_tx": _count(
                tracer.candidates / max(1, tracer.scans)
            ),
            "radio.pool_hit_ratio": _count(hits / max(1, hits + misses), "ratio"),
            "phy.frames_per_delivery": _count(
                result.totals("received") / max(1, delivered), "ratio"
            ),
            "mac.retries": _count(result.totals("retries")),
            "mac.csma_backoffs": _count(result.totals("csma_backoffs")),
            "mac.channel_access_failures": _count(
                result.totals("channel_access_failures")
            ),
            "zigbee.reports_delivered": _count(result.totals("delivered")),
        }
    )
    return metrics


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"fleetbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, check_result, differential_problem, fingerprint

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"fleetbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    from clock import ReferenceClock

    clock = ReferenceClock()
    setup_times = [
        _cold_setup_s(clock, workload, args.seed) for _ in range(SETUP_REPEATS)
    ]
    spec = workload.spec(args.seed)
    reference = workload.run(spec)  # untimed; also warms every cache
    expected = fingerprint(reference)
    problems = check_result(workload, reference)
    dense_problem = differential_problem(workload, spec, reference)
    if dense_problem:
        problems.append(dense_problem)

    tracer = None
    if args.trace:
        from spans import LAYERS, LayerTracer

        tracer = LayerTracer()
    samples: List[Dict[str, float]] = []
    times: List[float] = []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < deadline:
        if tracer is None:
            result, elapsed = clock.time(lambda: workload.run(spec))
        else:
            tracer.reset()
            with tracer.installed():
                result, elapsed = clock.time(lambda: workload.run(spec))
            samples.append({k: v * clock.factor for k, v in tracer.self_s.items()})
        times.append(elapsed)
        campaign_problems = check_result(workload, result)
        if fingerprint(result) != expected:
            campaign_problems.append("outcome differs from the first campaign")
        if campaign_problems:
            failed += 1
            problems.extend(campaign_problems)

    for problem in dict.fromkeys(problems):
        print(f"fleetbench: {workload.name}: {problem}", file=sys.stderr)
    print(
        f"fleetbench: {workload.name} seed={args.seed} nodes={spec.num_nodes} "
        f"pans={len(spec.pans)} campaigns={len(times)}",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "campaign_ms": _ms(statistics.median(times)),
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    else:
        metrics = _layer_metrics(LAYERS, samples, tracer, result, times)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(times),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
