"""Table I — the symbol → PN-sequence correspondence table.

Regenerates every row and benchmarks the DSSS spread/despread path that
consumes it.
"""

import numpy as np

from repro.phy.ieee802154 import PN_SEQUENCES, despread_chips, spread_bytes
from repro.experiments.reports import render_table1



def test_table1_regeneration(benchmark, report):
    report("Table I: block / PN sequence correspondence", render_table1())

    # Paper-pinned rows.
    assert "".join(map(str, PN_SEQUENCES[0])) == (
        "11011001110000110101001000101110"
    )
    assert "".join(map(str, PN_SEQUENCES[15])) == (
        "11001001011000000111011110111000"
    )

    payload = bytes(range(64))

    def spread_and_despread():
        chips = spread_bytes(payload)
        symbols, _, _ = despread_chips(chips)
        return symbols

    symbols = benchmark(spread_and_despread)
    assert len(symbols) == 2 * len(payload)


def test_table1_noise_margin(benchmark):
    """Benchmark despreading under a 10% chip error rate — the regime the
    Hamming matching of §IV-D is designed for."""
    rng = np.random.default_rng(0)
    chips = spread_bytes(bytes(range(32)))

    def decode_noisy():
        noisy = chips ^ (rng.random(chips.size) < 0.1).astype(np.uint8)
        symbols, distances, _ = despread_chips(noisy)
        return symbols, distances

    symbols, distances = benchmark(decode_noisy)
    expected, _, _ = despread_chips(chips)
    errors = sum(1 for a, b in zip(symbols, expected) if a != b)
    assert errors <= 2
    assert np.mean(distances) > 1.0
