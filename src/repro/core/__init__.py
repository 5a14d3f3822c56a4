"""The paper's contribution: the WazaBee pivot.

* :mod:`repro.core.tables` — Algorithm 1 (PN sequence → MSK encoding) and
  the 16-entry correspondence table used by both primitives.
* :mod:`repro.core.encoding` — frame-level encoding: an entire 802.15.4
  chip stream rendered as the bit sequence a BLE GFSK modulator must send,
  and the Access Address that makes a BLE receiver sync on an 802.15.4
  preamble.
* :mod:`repro.core.channel_map` — Table II: the Zigbee channels reachable
  through BLE channel frequencies.
* :mod:`repro.core.tx` / :mod:`repro.core.rx` — the transmission and
  reception primitives (§IV-D).
* :mod:`repro.core.firmware` — the "malicious firmware" tying primitives to
  a compromised BLE chip model.
"""

from repro.core.channel_map import (
    COMMON_CHANNELS,
    ble_channel_for_zigbee,
)
from repro.core.encoding import (
    frame_to_msk_bits,
    wazabee_access_address,
    wazabee_access_address_bits,
)
from repro.core.rx import DecodedFrame, WazaBeeReceiver
from repro.core.tables import CorrespondenceTable, pn_to_msk
from repro.core.tx import WazaBeeTransmitter
from repro.core.firmware import WazaBeeFirmware

__all__ = [
    "pn_to_msk",
    "CorrespondenceTable",
    "COMMON_CHANNELS",
    "ble_channel_for_zigbee",
    "frame_to_msk_bits",
    "wazabee_access_address",
    "wazabee_access_address_bits",
    "WazaBeeTransmitter",
    "WazaBeeReceiver",
    "DecodedFrame",
    "WazaBeeFirmware",
]
