"""Bluetooth Low Energy protocol substrate (lower layers).

Implements exactly the parts of the Bluetooth Core specification that the
WazaBee attack touches:

* channel maps and centre frequencies (:mod:`repro.ble.channels`);
* data whitening (:mod:`repro.ble.whitening`);
* the CRC-24 (:mod:`repro.ble.crc`);
* packet formats — legacy advertising and the LE 2M extended-advertising
  chain Scenario A abuses (:mod:`repro.ble.packets`);
* Channel Selection Algorithm #2 (:mod:`repro.ble.csa2`), which decides the
  secondary advertising channel and is the reason the smartphone attacker
  can only select a Zigbee channel probabilistically.

There is no advertiser/scanner link layer: the one device that
advertises, Scenario A's smartphone, builds its extended-advertising
chain itself (:mod:`repro.chips.smartphone`).
"""

from repro.ble.channels import (
    ADVERTISING_CHANNELS,
    DATA_CHANNELS,
    channel_frequency_hz,
    channel_for_frequency,
)
from repro.ble.crc import ADVERTISING_CRC_INIT, ble_crc24
from repro.ble.whitening import whiten
from repro.ble.csa2 import Csa2Session

__all__ = [
    "ADVERTISING_CHANNELS",
    "DATA_CHANNELS",
    "channel_frequency_hz",
    "channel_for_frequency",
    "ble_crc24",
    "ADVERTISING_CRC_INIT",
    "whiten",
    "Csa2Session",
]
