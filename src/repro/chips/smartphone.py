"""Unrooted Android smartphone model (Scenario A's attacker platform).

The attacker controls a normal app with standard permissions, so the only
reachable surface is the high-level extended-advertising API
(``AdvertisingSetParameters`` and friends).  Consequences modelled here,
mirroring §VI-B:

* no raw radio access — this class deliberately does *not* implement
  :class:`~repro.core.radio_api.LowLevelRadio`;
* whitening and CRC are always on (the controller builds spec-compliant
  packets);
* the secondary advertising channel is chosen by CSA#2, not by the app —
  the attacker can only advertise at the smallest interval and wait for the
  algorithm to land on the BLE channel overlapping the target Zigbee
  channel;
* invalid received frames never reach the host, so the reception primitive
  is impossible ("the received frames including a wrong CRC are dropped at
  the controller level").

Per advertising event the controller sends ADV_EXT_IND on the three primary
channels at LE 1M, then AUX_ADV_IND with the application's advertising data
on the CSA#2 channel at LE 2M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.ble.channels import ADVERTISING_CHANNELS
from repro.ble.csa2 import Csa2Session
from repro.ble.packets import (
    ADVERTISING_ACCESS_ADDRESS,
    Adi,
    AuxPtr,
    ExtendedAdvertisingPdu,
    PhyMode,
)
from repro.chips.ble_radio import BleRadioPeripheral
from repro.chips.capabilities import ChipCapabilities
from repro.radio.medium import RfMedium

__all__ = ["SMARTPHONE_CAPABILITIES", "AdvertisingEvent", "SmartphoneBle"]

SMARTPHONE_CAPABILITIES = ChipCapabilities(
    name="Android smartphone (unrooted)",
    supports_le_2m=True,
    supports_esb_2m=False,
    arbitrary_frequency=False,
    can_disable_whitening=False,
    can_disable_crc=False,
    raw_radio_access=False,
    cfo_std_hz=20e3,
)

#: Smallest extended-advertising interval Android exposes (160 × 0.625 ms).
MIN_ADVERTISING_INTERVAL_S = 0.1
#: Spacing between the per-event primary-channel PDUs.
_PRIMARY_SPACING_S = 400e-6


@dataclass
class AdvertisingEvent:
    """Record of one advertising event (for experiment bookkeeping)."""

    counter: int
    secondary_channel: int
    time: float


class SmartphoneBle:
    """A BLE-5 smartphone exposing only the extended-advertising API."""

    def __init__(
        self,
        medium: RfMedium,
        name: str = "OnePlus 6T",
        position: Tuple[float, float] = (0.0, 0.0),
        rng: Optional[np.random.Generator] = None,
        advertiser_address: bytes = bytes.fromhex("c0ffee123456"),
    ):
        self.capabilities = SMARTPHONE_CAPABILITIES
        self.name = name
        # The controller below is internal: the app API never touches it.
        self._controller = BleRadioPeripheral(
            medium,
            capabilities=ChipCapabilities(
                name=f"{name} controller",
                cfo_std_hz=SMARTPHONE_CAPABILITIES.cfo_std_hz,
            ),
            name=name,
            position=position,
            rng=rng,
        )
        self._scheduler = medium.scheduler
        self.advertiser_address = advertiser_address
        self._advertising = False
        self._adv_data = b""
        self._csa2 = Csa2Session(ADVERTISING_ACCESS_ADDRESS)
        self._adi = Adi(did=0x123, sid=1)
        self.events: List[AdvertisingEvent] = []
        self._event_callback: Optional[Callable[[AdvertisingEvent], None]] = None

    # ------------------------------------------------------------------
    # The Android-level API surface
    # ------------------------------------------------------------------
    def start_extended_advertising(
        self,
        adv_data: bytes,
        event_callback: Optional[Callable[[AdvertisingEvent], None]] = None,
    ) -> None:
        """Begin extended advertising with LE 1M primary / LE 2M secondary,
        one event per :data:`MIN_ADVERTISING_INTERVAL_S`.

        *adv_data* must already be a sequence of AD structures (use
        :func:`repro.ble.packets.manufacturer_data`).
        """
        if len(adv_data) > 245:
            raise ValueError(
                "advertising data exceeds what a single AUX_ADV_IND carries"
            )
        self._adv_data = bytes(adv_data)
        self._event_callback = event_callback
        if not self._advertising:
            self._advertising = True
            self._scheduler.schedule(0.0, self._advertising_event)

    def stop_advertising(self) -> None:
        self._advertising = False

    def set_advertising_data(self, adv_data: bytes) -> None:
        """Update the advertising data between events."""
        if len(adv_data) > 245:
            raise ValueError("advertising data too long")
        self._adv_data = bytes(adv_data)

    # ------------------------------------------------------------------
    # Controller behaviour
    # ------------------------------------------------------------------
    def _advertising_event(self) -> None:
        if not self._advertising:
            return
        counter, channel = self._csa2.next_channel()
        event = AdvertisingEvent(
            counter=counter, secondary_channel=channel, time=self._scheduler.now
        )
        self.events.append(event)
        aux_delay = _PRIMARY_SPACING_S * len(ADVERTISING_CHANNELS)
        aux_ptr = AuxPtr(
            channel=channel,
            phy=PhyMode.LE_2M,
            offset_usec=int(aux_delay * 1e6),
        )
        ext_ind = ExtendedAdvertisingPdu(
            adi=self._adi, aux_ptr=aux_ptr, adv_mode=0
        ).to_pdu()
        for i, primary in enumerate(ADVERTISING_CHANNELS):
            self._scheduler.schedule(
                i * _PRIMARY_SPACING_S,
                lambda ch=primary: self._controller.transmit_pdu(
                    ext_ind, channel=ch, phy=PhyMode.LE_1M
                ),
            )
        self._scheduler.schedule(aux_delay, lambda: self._transmit_aux(channel))
        if self._event_callback is not None:
            self._event_callback(event)
        self._scheduler.schedule(MIN_ADVERTISING_INTERVAL_S, self._advertising_event)

    def _transmit_aux(self, channel: int) -> None:
        if not self._advertising:
            return
        aux = ExtendedAdvertisingPdu(
            advertiser_address=self.advertiser_address,
            adi=self._adi,
            adv_mode=0,
            adv_data=self._adv_data,
        )
        self._controller.transmit_pdu(
            aux.to_pdu(), channel=channel, phy=PhyMode.LE_2M
        )

    # -- geometry helpers ---------------------------------------------------
    @property
    def position(self) -> Tuple[float, float]:
        return self._controller.transceiver.position

    @staticmethod
    def aux_data_offset_bytes() -> int:
        """PDU-start → advertising-data offset for the AUX layout above.

        Header (2) + ext-header-length/AdvMode (1) + flags (1) + AdvA (6) +
        ADI (2) = 12 bytes; the manufacturer AD structure adds 2 bytes of
        framing and 2 bytes of company id — the paper's 16-byte padding.
        """
        probe = ExtendedAdvertisingPdu(
            advertiser_address=bytes(6), adi=Adi(), adv_mode=0
        )
        return probe.data_offset_in_pdu()
