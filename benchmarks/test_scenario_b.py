"""Scenario B / Figure 5 — complex Zigbee attack from a BLE tracker.

Regenerates the §VI-C experiment: active scan → eavesdrop → remote AT
channel-change DoS → spoofed sensor readings, all from an nRF51822 tracker
running the ESB 2 Mbit/s fallback.
"""

from repro.attacks.scenario_b import AttackPhase
from repro.experiments.scenarios import run_scenario_b


def test_scenario_b_full_chain(benchmark, report):
    result = benchmark.pedantic(
        run_scenario_b,
        kwargs={"duration_s": 40.0, "dos_channel": 26, "seed": 5},
        rounds=1,
        iterations=1,
    )
    report(
        "Scenario B: tracker attack workflow (Figure 5)",
        "\n".join(result.log)
        + f"\nfinal phase:             {result.final_phase.value}"
        + f"\nsensor channel after:    {result.sensor_channel_after}"
        + f"\ndisplay: {result.legitimate_entries} legitimate / "
        f"{result.spoofed_entries} spoofed entries",
    )

    assert result.final_phase is AttackPhase.DONE
    assert result.network_channel == 14  # found by active scan
    assert result.sensor_channel_after == 26  # DoS via remote AT CH
    assert result.spoofed_entries == 5
    # After the DoS the display shows (almost) only attacker data.
    assert result.spoofed_entries > result.legitimate_entries


def test_scenario_b_repeatability(benchmark, report):
    """The chain is robust, not a lucky seed: multiple independent runs."""

    def run_many():
        outcomes = []
        for seed in (11, 23, 47):
            result = run_scenario_b(duration_s=40.0, seed=seed)
            outcomes.append(
                (seed, result.final_phase, result.sensor_channel_after)
            )
        return outcomes

    outcomes = benchmark.pedantic(run_many, rounds=1, iterations=1)
    report(
        "Scenario B companion: repeatability over seeds",
        "\n".join(
            f"seed {seed}: phase={phase.value}, sensor_channel={channel}"
            for seed, phase, channel in outcomes
        ),
    )
    successes = [o for o in outcomes if o[1] is AttackPhase.DONE and o[2] == 26]
    assert len(successes) >= 2
