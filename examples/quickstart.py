#!/usr/bin/env python3
"""Quickstart: divert a BLE chip into a Zigbee transceiver.

Stands up a simulated 2.4 GHz environment with two devices three metres
apart — a compromised nRF52832 (BLE 5) and a genuine 802.15.4 transceiver
(AVR RZUSBStick) — and runs both WazaBee primitives:

1. the BLE chip *transmits* an 802.15.4 data frame that the real Zigbee
   radio receives with a valid FCS;
2. the real Zigbee radio transmits, and the BLE chip *receives* and decodes
   the frame.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.chips import Nrf52832, RzUsbStick
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address, MacFrame, build_data
from repro.radio import RfMedium, Scheduler

ZIGBEE_CHANNEL = 14  # 2420 MHz — shared with BLE data channel 8 (Table II)


def main() -> None:
    scheduler = Scheduler()
    medium = RfMedium(scheduler)

    ble_chip = Nrf52832(medium, position=(0.0, 0.0), rng=np.random.default_rng(1))
    zigbee = RzUsbStick(medium, position=(3.0, 0.0), rng=np.random.default_rng(2))
    zigbee.set_channel(ZIGBEE_CHANNEL)

    firmware = WazaBeeFirmware(ble_chip, scheduler)

    sensor = Address(pan_id=0x1234, address=0x0063)
    coordinator = Address(pan_id=0x1234, address=0x0042)

    # -- 1. transmission primitive: BLE chip -> Zigbee radio ----------------
    print(f"[tx] injecting an 802.15.4 frame on channel {ZIGBEE_CHANNEL} "
          "from the BLE chip...")
    received = []
    zigbee.start_rx(received.append)
    frame = build_data(coordinator, sensor, b"hello from a BLE chip",
                       sequence_number=1)
    firmware.send_frame(frame, channel=ZIGBEE_CHANNEL)
    scheduler.run(0.01)
    for r in received:
        mac = MacFrame.parse(r.psdu)
        print(f"[tx] Zigbee radio received: payload={mac.payload!r} "
              f"fcs_ok={r.fcs_ok} mean_chip_distance={r.mean_chip_distance:.2f}")
    zigbee.stop_rx()

    # -- 2. reception primitive: Zigbee radio -> BLE chip --------------------
    print("[rx] sniffing Zigbee traffic with the BLE chip...")
    sniffed = []
    firmware.start_sniffer(ZIGBEE_CHANNEL, lambda f, d: sniffed.append((f, d)))
    zigbee.transmit_frame(
        build_data(sensor, coordinator, b"temperature=21", sequence_number=2)
    )
    scheduler.run(0.01)
    for mac, decoded in sniffed:
        print(f"[rx] BLE chip decoded: payload={mac.payload!r} "
              f"src={mac.source} dst={mac.destination} "
              f"fcs_ok={decoded.fcs_ok} mean_hamming={decoded.mean_distance:.2f}")
    firmware.stop_sniffer()

    assert received and received[0].fcs_ok, "transmission primitive failed"
    assert sniffed and sniffed[0][1].fcs_ok, "reception primitive failed"
    print("both primitives work: the BLE chip is now a Zigbee transceiver.")


if __name__ == "__main__":
    main()
