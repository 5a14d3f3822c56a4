#!/usr/bin/env python3
"""Counter-measure demo: a multi-band spectrum IDS catching the pivot.

§VII of the paper argues for protocol-agnostic radio monitoring: model the
legitimate environment's per-band activity, then alert on deviations.  Here
a sentinel watches every Zigbee channel while a pure-BLE site operates
normally (baseline: nothing on Zigbee-only bands); when a compromised chip
starts the WazaBee pivot, energy appears on 2420 MHz and the detector
raises a "new-band" alert.

Run:  python examples/spectrum_ids.py
"""

import numpy as np

from repro.chips import Nrf52832
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.channels import ZIGBEE_CHANNELS, channel_frequency_hz
from repro.dot15d4.frames import Address, build_data
from repro.ids import AnomalyDetector, SpectrumSentinel
from repro.radio import RfMedium, Scheduler

# Bands with no BLE counterpart: activity there is never legitimate BLE.
MONITORED_BANDS = [channel_frequency_hz(ch) for ch in ZIGBEE_CHANNELS]


def main() -> None:
    scheduler = Scheduler()
    medium = RfMedium(scheduler)
    sentinel = SpectrumSentinel(medium, MONITORED_BANDS, position=(1.0, 1.0))
    sentinel.start()
    detector = AnomalyDetector()

    chip = Nrf52832(medium, position=(0.0, 0.0), rng=np.random.default_rng(1))

    # -- training: legitimate BLE-only traffic -----------------------------
    print("training on 10 s of legitimate BLE advertising...")
    from repro.ble.packets import AdvNonconnInd

    adv = AdvNonconnInd(advertiser_address=bytes(6), adv_data=b"\x02\x01\x06").to_pdu()
    for i in range(100):
        scheduler.schedule(0.1 * i, lambda: chip.transmit_pdu(adv, channel=37))
    scheduler.run(10.0)
    detector.train(sentinel.observations, duration_s=10.0)
    print(f"baseline learned from {len(sentinel.observations)} observations "
          f"across {len(detector.baselines)} active bands")

    # -- attack: the same chip pivots to Zigbee ------------------------------
    print("attacker pivots the chip to Zigbee channel 14...")
    sentinel.clear()
    window_start = scheduler.now
    firmware = WazaBeeFirmware(chip, scheduler)
    frame = build_data(
        Address(pan_id=0x1234, address=0x42),
        Address(pan_id=0x1234, address=0x63),
        b"exfil", sequence_number=1,
    )
    for i in range(5):
        scheduler.schedule(
            0.5 * i, lambda i=i: firmware.send_frame(frame, channel=14)
        )
    scheduler.run(5.0)

    alerts = detector.score(
        sentinel.observations_since(window_start),
        duration_s=scheduler.now - window_start,
    )
    print(f"alerts: {len(alerts)}")
    for alert in alerts:
        print(f"  [{alert.kind}] {alert.detail} (severity {alert.severity:.1f})")
    assert any(a.kind == "new-band" for a in alerts), "pivot went undetected!"
    print("the pivot was detected by protocol-agnostic spectrum monitoring.")


if __name__ == "__main__":
    main()
