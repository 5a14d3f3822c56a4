"""Fleet-scale medium benchmarks: interest management vs dense scanning.

Two records:

``fleet_medium_scan`` — the equal-semantics scaling curve.  Clustered
co-channel transceivers with no-op receivers exchange scripted tones on
a dense medium and a sharded medium configured with the *same* range
cutoff (the differential suite proves the outputs identical), so the
wall-clock difference is purely the candidate-scan cost the cell/channel
interest sets avoid.  The extra block records the full nodes-vs-ms curve;
the headline is the largest size, and ``speedup_vs_dense`` at that size
feeds the regression gate.

``fleet_campaign_sharded`` — the end-to-end fleet campaign (≥200 nodes,
channel reuse, WazaBee flooders) on the sharded medium vs the legacy
*unbounded* dense broadcast medium, which delivers — and decodes — every
frame at every co-channel radio.  This is what running the campaign cost
before interest management existed; expect order-of-magnitude ratios.
Both media run in one process (``workers=1``).

``fleet_cold_build`` — the median wall-clock of building a 208-node,
16-PAN fleet (medium and nodes, not started) with every process-wide DSP
design cleared first, as a fresh process would.  Not gated: it is an
absolute time, which tracks the runner as much as the code.

Both gated records record the median and minimum of their sharded
timings in ``extra``; the headline is the minimum.  The scan curve
alternates dense and sharded readings.  Below the gated size each
reading is the best of two runs; at the gated size the ratio is the
median of nine one-run readings, :data:`SCAN_GATED_ROUNDS` rounds of
three: on a shared 2-CPU host one-run ratios spread from 0.86 to 1.73
around 1.2, and the median of three best-of-two readings once read 0.90.  The campaign
times its sharded side three times and divides its one legacy run
(seconds long, so steady) by each sharded run.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import List

import numpy as np

from benchmarks.perf.harness import (
    BenchRecord,
    best_of,
    median_ratio,
    paired_timings,
    spread,
    timings,
)
from repro.dsp.gfsk import clear_waveform_caches
from repro.dsp.signal import IQSignal
from repro.experiments.fleet import run_fleet_campaign
from repro.obs import scoped
from repro.radio import RfMedium, Scheduler, ShardedRfMedium, Transceiver
from repro.zigbee.fleet import (
    FLEET_RANGE_CUTOFF_M,
    FLEET_SAMPLE_RATE,
    build_fleet,
    make_fleet,
)

#: Timed repetitions of the sharded side of the gated campaign record.
REPEATS = 3

#: Rounds of ``RATIO_READINGS`` interleaved one-run (dense, sharded)
#: readings behind the gated scan ratio.
SCAN_GATED_ROUNDS = 3

#: Cold builds behind the ``fleet_cold_build`` median.
COLD_BUILDS = 11

__all__ = ["bench_fleet"]

_SAMPLE_RATE = 4e6
_CLUSTER = 10  # co-located co-channel nodes per 60 m grid cell


def _scan_world(medium_cls, num_nodes: int, txs_per_node: int) -> None:
    """Scripted tone exchange over clustered no-op receivers.

    The queue is drained before returning, and the medium's delivery
    ledger must balance: every scheduled delivery was delivered or skipped.
    """
    n = np.arange(96)
    tone = np.exp(2j * np.pi * 80e3 * n / _SAMPLE_RATE) * 0.5
    with scoped() as (_, registry):
        scheduler = Scheduler()
        medium = medium_cls(
            scheduler, sample_rate=_SAMPLE_RATE, seed=3, range_cutoff_m=15.0
        )
        side = math.ceil(math.sqrt(num_nodes / _CLUSTER))
        radios = []
        for i in range(num_nodes):
            cluster = i // _CLUSTER
            cx = (cluster % side) * 60.0
            cy = (cluster // side) * 60.0
            radio = Transceiver(
                medium, name=f"n{i}", position=(cx + (i % _CLUSTER) * 1.0, cy)
            )
            radio.tune(2405e6)
            radio.start_rx(lambda cap, tx: None)
            radios.append(radio)
        k = 0
        for _ in range(txs_per_node):
            for radio in radios:
                signal = IQSignal(tone, _SAMPLE_RATE, 2405e6)
                scheduler.schedule_at(
                    (k % 997) * 1e-5,
                    lambda r=radio, s=signal: r.transmit(s),
                )
                k += 1
        scheduler.run(0.02)
        while scheduler.step():
            pass
    ledger = registry.counter_values()
    scheduled = ledger.get("medium.deliveries.scheduled", 0)
    settled = ledger.get("medium.deliveries.delivered", 0) + ledger.get(
        "medium.deliveries.skipped", 0
    )
    if scheduled != settled:
        raise RuntimeError(f"unbalanced delivery ledger: {scheduled} != {settled}")


def bench_fleet(quick: bool = False) -> List[BenchRecord]:
    records: List[BenchRecord] = []

    # -- equal-semantics scan scaling curve ---------------------------------
    sizes = (50, 100) if quick else (50, 100, 200)
    txs_per_node = 3 if quick else 6
    top = sizes[-1]
    curve = {}
    for num_nodes in sizes:
        pair = (
            lambda n=num_nodes: _scan_world(RfMedium, n, txs_per_node),
            lambda n=num_nodes: _scan_world(ShardedRfMedium, n, txs_per_node),
        )
        if num_nodes < top:
            curve[num_nodes] = paired_timings(*pair, repeats=2)
            continue
        rounds = [paired_timings(*pair) for _ in range(SCAN_GATED_ROUNDS)]
        curve[num_nodes] = (
            [t for dense_s, _ in rounds for t in dense_s],
            [t for _, sharded_s in rounds for t in sharded_s],
        )
    extra = {"txs_per_node": txs_per_node}
    for num_nodes, (dense_s, sharded_s) in curve.items():
        extra[f"dense_ms_{num_nodes}"] = min(dense_s) * 1e3
        extra[f"sharded_ms_{num_nodes}"] = min(sharded_s) * 1e3
    dense_s, sharded_s = curve[top]
    extra["speedup_vs_dense"] = median_ratio(dense_s, sharded_s)
    extra.update(spread(sharded_s))
    records.append(
        BenchRecord(
            name="fleet_medium_scan",
            metric="ms",
            value=min(sharded_s) * 1e3,
            repeats=len(sharded_s),
            extra=extra,
        )
    )

    # -- end-to-end campaign vs the legacy broadcast medium -----------------
    num_nodes = 60 if quick else 208
    num_pans = 6 if quick else 16
    duration_s = 0.2
    flood_rate_hz = 20.0 if quick else 10.0
    spec = make_fleet(
        num_nodes=num_nodes, num_pans=num_pans, seed=5, channel_reuse=True
    )

    # The default would fan the sharded run's independent PAN groups out
    # over processes, which the unbounded medium (one group) cannot.
    def run(kind: str) -> None:
        run_fleet_campaign(
            spec,
            duration_s=duration_s,
            attack=True,
            flood_rate_hz=flood_rate_hz,
            medium_kind=kind,
            workers=1,
            sample_interval_s=duration_s,
        )

    sharded_s = timings(lambda: run("sharded"), repeats=REPEATS)
    # The unbounded reference runs for seconds even at smoke size, where
    # one run is steady enough; full runs take the best of two.
    legacy_s = best_of(lambda: run("dense-unbounded"), repeats=1 if quick else 2)
    records.append(
        BenchRecord(
            name="fleet_campaign_sharded",
            metric="ms",
            value=min(sharded_s) * 1e3,
            repeats=REPEATS,
            extra={
                "nodes": num_nodes,
                "pans": num_pans,
                "duration_s": duration_s,
                "flood_rate_hz": flood_rate_hz,
                "dense_unbounded_ms": legacy_s * 1e3,
                "speedup_vs_dense": median_ratio(
                    [legacy_s] * len(sharded_s), sharded_s
                ),
                **spread(sharded_s),
            },
        )
    )

    # -- cold build of the benchmark's 208-node fleet -----------------------
    cold = make_fleet(num_nodes=208, num_pans=16, seed=5, channel_reuse=True)
    builds: List[float] = []
    for _ in range(COLD_BUILDS):
        clear_waveform_caches()
        gc.collect()
        start = time.perf_counter()
        medium = ShardedRfMedium(
            Scheduler(),
            sample_rate=FLEET_SAMPLE_RATE,
            seed=cold.seed + 1,
            range_cutoff_m=FLEET_RANGE_CUTOFF_M,
        )
        build_fleet(cold, medium)
        builds.append(time.perf_counter() - start)
    records.append(
        BenchRecord(
            name="fleet_cold_build",
            metric="ms",
            value=statistics.median(builds) * 1e3,
            repeats=COLD_BUILDS,
            extra={"nodes": cold.num_nodes, "min_ms": min(builds) * 1e3},
        )
    )
    return records
