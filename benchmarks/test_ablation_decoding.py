"""Ablations over the receive-side design choices.

* Hamming-distance despreading robustness (§IV-D's justification).
* The ESB 2 Mbit/s fallback's cost (§VI-C).
* Whitening strategies: disable vs pre-invert (§IV-D).
"""

from repro.experiments.ablations import (
    esb_fallback_comparison,
    hamming_threshold_sweep,
    whitening_strategy_check,
)


def test_ablation_hamming_robustness(benchmark, report):
    accuracy = benchmark.pedantic(
        hamming_threshold_sweep,
        rounds=1,
        iterations=1,
    )
    report(
        "Ablation: symbol decode accuracy vs chip error rate",
        "\n".join(
            f"chip error {rate:.2f}: {acc:.4f}" for rate, acc in accuracy.items()
        ),
    )
    assert accuracy[0.0] == 1.0
    assert accuracy[0.1] > 0.97  # the regime GMSK≈MSK errors live in
    assert accuracy[0.3] > 0.5  # graceful, not cliff-edge
    rates = list(accuracy.values())
    assert rates == sorted(rates, reverse=True)


def test_ablation_esb_fallback(benchmark, report):
    comparison = benchmark.pedantic(
        esb_fallback_comparison,
        rounds=1,
        iterations=1,
    )
    report(
        "Ablation: LE 2M vs Enhanced ShockBurst fallback (reception)",
        f"nRF52832 / LE 2M:   {comparison.le2m_valid_rate:.3f} valid\n"
        f"nRF51822 / ESB 2M:  {comparison.esb_valid_rate:.3f} valid\n"
        f"({comparison.frames} frames each)",
    )
    # §VI-C: "a direct impact on the reception quality, but it is
    # sufficient" — degraded yet usable.
    assert comparison.le2m_valid_rate >= comparison.esb_valid_rate
    assert comparison.esb_valid_rate > 0.3


def test_ablation_whitening_strategies(benchmark, report):
    def check_all_channels():
        results = {}
        for channel in (0, 8, 17, 27, 39):
            _, _, equal = whitening_strategy_check(channel_index=channel)
            results[channel] = equal
        return results

    results = benchmark(check_all_channels)
    report(
        "Ablation: whitening disabled vs pre-inverted (on-air equality)",
        "\n".join(f"BLE channel {ch}: {'ok' if eq else 'MISMATCH'}"
                  for ch, eq in results.items()),
    )
    assert all(results.values())
