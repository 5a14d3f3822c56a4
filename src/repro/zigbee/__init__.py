"""XBee-style Zigbee application layer.

The paper's target network (§VI-A): two XBee (Digi's 802.15.4 product line)
transceivers with PAN id 0x1234 on channel 14 — an end-device "sensor"
(0x0063) pushing a reading every two seconds and a coordinator (0x0042)
acknowledging and plotting the values.

Modelled here:

* :mod:`repro.zigbee.xbee` — the XBee application payloads, including the
  *remote AT command* service whose lack of authentication enables the
  denial-of-service of Vaccari et al. that Scenario B replays;
* :mod:`repro.zigbee.network` — the sensor and coordinator node behaviours.
"""

from repro.zigbee.xbee import (
    AtCommand,
    RemoteAtCommand,
    SensorReading,
)
from repro.zigbee.network import (
    CoordinatorNode,
    RouterNode,
    SensorNode,
    XBeeNode,
)
from repro.zigbee.fleet import (
    Fleet,
    FleetNodeSpec,
    FleetSpec,
    PanSpec,
    build_fleet,
    make_fleet,
)

__all__ = [
    "AtCommand",
    "RemoteAtCommand",
    "SensorReading",
    "XBeeNode",
    "SensorNode",
    "RouterNode",
    "CoordinatorNode",
    "Fleet",
    "FleetNodeSpec",
    "FleetSpec",
    "PanSpec",
    "build_fleet",
    "make_fleet",
]
