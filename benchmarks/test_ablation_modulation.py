"""Ablations over the modulation-compatibility design choices (DESIGN.md §5).

The paper's §IV-B argues the pivot works because (a) the Gaussian filter's
effect is negligible and (b) BLE's modulation-index window brackets the MSK
value.  These benches quantify both claims.
"""

from repro.experiments.ablations import gaussian_bt_sweep, modulation_index_sweep


def test_ablation_gaussian_bt(benchmark, report):
    rates = benchmark.pedantic(
        gaussian_bt_sweep,
        rounds=1,
        iterations=1,
    )
    report(
        "Ablation: chip error rate vs Gaussian BT (GFSK TX -> MSK RX)",
        "\n".join(f"{name:>8}: {rate:.5f}" for name, rate in rates.items()),
    )
    # "If we neglect the effect of the Gaussian filter" is justified at the
    # BLE value:
    assert rates["BT=0.5"] < 0.01
    assert rates["MSK"] == 0.0
    # Heavier smearing degrades monotonically.
    assert rates["BT=0.3"] >= rates["BT=0.5"] >= rates["BT=1.0"]


def test_ablation_modulation_index(benchmark, report):
    rates = benchmark.pedantic(
        modulation_index_sweep,
        rounds=1,
        iterations=1,
    )
    report(
        "Ablation: chip error rate vs modulation index (BLE window)",
        "\n".join(f"h={h}: {rate:.5f}" for h, rate in rates.items()),
    )
    # The window the BLE spec allows keeps the raw chip error rate well
    # inside what 32-chip Hamming despreading absorbs.
    assert all(rate < 0.12 for rate in rates.values())
    assert rates[0.5] <= min(rates[0.45], rates[0.55])
