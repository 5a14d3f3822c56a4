"""Table III — reception and transmission primitives assessment.

The paper's headline benchmark: 100 frames per (chip, primitive, channel)
cell, classified valid / corrupted / lost, in an environment with WiFi on
channels 6 and 11.  The grid is regenerated on seeds 1–8.

Shape claims asserted (not absolute numbers — our substrate is a simulator),
on every seed and again pooled over the seeds, where each pooled rate's
Wilson 95% interval must clear the claim:

* average valid rate is "very satisfactory" (> 90%) for every chip and
  primitive (paper: 97.5–99.4%);
* WiFi-overlapped Zigbee channels (16–18, 21–23) fare worse than the clean
  ones, by less than 20 points — the paper's per-channel signature;
* the CC1352-R1 model is at least as stable as the nRF52832 on reception,
  to within 2 points (paper: 99.375% vs 98.625%).

No seed is left out when it fails a claim.  The paper's transmission gap
(CC1352-R1 99.44% vs nRF52832 97.5%) is not asserted: the model does not
reproduce it (EXPERIMENTS.md, Table III).
"""

import math
import time
from typing import Dict, Iterable, Tuple

import pytest

from benchmarks.conftest import table3_frames
from repro.experiments.table3 import Table3Result, format_table3, run_table3

WIFI_CHANNELS = {16, 17, 18, 21, 22, 23}
CLEAN_CHANNELS = {11, 12, 13, 14, 20, 25, 26}
SEEDS = range(1, 9)
CHIPS = ("nRF52832", "CC1352-R1")
PRIMITIVES = ("rx", "tx")

#: Two-sided 95% normal quantile.
Z95 = 1.959963984540054


def wilson(valid: int, total: int, z: float = Z95) -> Tuple[float, float]:
    """The Wilson score interval of a binomial rate *valid* / *total*."""
    rate = valid / total
    denominator = 1.0 + z * z / total
    centre = (rate + z * z / (2 * total)) / denominator
    half = (
        z
        * math.sqrt(rate * (1.0 - rate) / total + z * z / (4 * total * total))
        / denominator
    )
    return centre - half, centre + half


def _counts(cells: Iterable) -> Tuple[int, int]:
    cells = list(cells)
    return sum(c.valid for c in cells), sum(c.total for c in cells)


def _cells(result: Table3Result, chip=None, primitive=None, channels=None):
    for (c, p), rows in result.cells.items():
        if chip not in (None, c) or primitive not in (None, p):
            continue
        for channel, cell in rows.items():
            if channels is None or channel in channels:
                yield cell


def _rate(cells) -> float:
    valid, total = _counts(cells)
    return valid / total


@pytest.fixture(scope="module")
def sweep() -> Dict[int, Tuple[Table3Result, float]]:
    """Each seed's grid and its wall-clock seconds."""
    grids = {}
    for seed in SEEDS:
        start = time.perf_counter()
        grid = run_table3(frames=table3_frames(), seed=seed, workers=2)
        grids[seed] = grid, time.perf_counter() - start
    return grids


def test_table3_full(report, sweep):
    frames = table3_frames()
    report(f"Table III ({frames} frames per cell, seed 1)", format_table3(sweep[1][0]))

    lines = []
    for seed, (table, seconds) in sweep.items():
        rates = {
            (chip, primitive): table.average_valid_rate(chip, primitive)
            for primitive in PRIMITIVES
            for chip in CHIPS
        }
        clean = _rate(_cells(table, channels=CLEAN_CHANNELS))
        wifi = _rate(_cells(table, channels=WIFI_CHANNELS))
        lines.append(
            f"seed {seed}: "
            + ", ".join(f"{p}/{c} {r:.3%}" for (c, p), r in rates.items())
            + f", dip {clean - wifi:.3%} ({seconds:.1f} s)"
        )
        for (chip, primitive), rate in rates.items():
            assert rate > 0.90, f"seed {seed}: {chip}/{primitive} average {rate:.3f}"
        assert wifi < clean, f"seed {seed}: no WiFi dip ({clean:.3f} vs {wifi:.3f})"
        assert clean - wifi < 0.2, f"seed {seed}: dip {clean - wifi:.3f} is a collapse"
        assert rates[("CC1352-R1", "rx")] >= rates[("nRF52832", "rx")] - 0.02, (
            f"seed {seed}: CC1352-R1 rx trails nRF52832 rx by more than 2 points"
        )
    report(f"Table III per seed ({frames} frames per cell)", "\n".join(lines))


def test_table3_pooled_claims(report, sweep):
    """The claims on the rates pooled over seeds 1–8, each interval-wide."""
    pools = {f"{p}/{c}": dict(chip=c, primitive=p) for p in PRIMITIVES for c in CHIPS}
    pools["clean channels"] = dict(channels=CLEAN_CHANNELS)
    pools["WiFi channels"] = dict(channels=WIFI_CHANNELS)
    intervals = {}
    lines = []
    for label, selection in pools.items():
        cells = [c for t, _ in sweep.values() for c in _cells(t, **selection)]
        valid, total = _counts(cells)
        low, high = intervals[label] = wilson(valid, total)
        lines.append(
            f"{label}: {valid / total:.3%} "
            f"(Wilson 95% {low:.3%}–{high:.3%}, n={total})"
        )
    report(f"Table III pooled over seeds {SEEDS[0]}-{SEEDS[-1]}", "\n".join(lines))

    for chip in CHIPS:
        for primitive in PRIMITIVES:
            low, _ = intervals[f"{primitive}/{chip}"]
            assert low > 0.90, f"{chip}/{primitive}: interval reaches {low:.3f}"
    clean_low, clean_high = intervals["clean channels"]
    wifi_low, wifi_high = intervals["WiFi channels"]
    assert wifi_high < clean_low, "the WiFi dip is inside the intervals"
    assert clean_high - wifi_low < 0.2, "the WiFi dip may reach 20 points"
    cc1352_low, _ = intervals["rx/CC1352-R1"]
    _, nrf_high = intervals["rx/nRF52832"]
    assert cc1352_low >= nrf_high - 0.02, "CC1352-R1 rx may trail by 2 points"
