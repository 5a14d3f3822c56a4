#!/usr/bin/env python3
"""Scenario B: a full Zigbee attack chain from a compromised BLE tracker.

The Gablys Lite tracker's nRF51822 has no LE 2M, so the WazaBee firmware
falls back to the Enhanced ShockBurst 2 Mbit/s mode.  The attack then runs
the paper's four stages against the demo home-automation network:

1. active scan (Beacon Request sweep over channels 11-26),
2. eavesdropping (learn the sensor's short address),
3. remote AT command injection — a spoofed ``CH`` command moves the sensor
   to another channel (denial of service),
4. fake data injection — the attacker impersonates the silenced sensor.

Run:  python examples/tracker_attack.py
"""

from repro.experiments.scenarios import run_scenario_b


def main() -> None:
    print("running scenario B (40 simulated seconds)...")
    result = run_scenario_b(duration_s=40.0, dos_channel=26, seed=5)
    print("attack log:")
    for line in result.log:
        print("  " + line)
    print(f"final phase:          {result.final_phase.value}")
    print(f"network found on:     channel {result.network_channel}")
    print(f"sensor channel after: {result.sensor_channel_after} "
          "(moved off the network => denial of service)")
    print(f"display entries:      {result.legitimate_entries} legitimate, "
          f"{result.spoofed_entries} spoofed")


if __name__ == "__main__":
    main()
