"""Nordic Semiconductor nRF51822 model — the Gablys Lite BLE tracker.

Scenario B's compromised device (§VI-C).  The nRF51822 predates Bluetooth 5
and has no LE 2M, "which is a key requirement of WazaBee" — but its
proprietary Enhanced ShockBurst mode runs at 2 Mbit/s and is diverted as a
substitute, at the cost of reception quality.  Everything else (arbitrary
tuning, whitening/CRC disable, raw radio access) matches the nRF51 radio
peripheral, the chip whose register-level flexibility started the whole
nRF-diversion tooling lineage.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.chips.ble_radio import BleRadioPeripheral
from repro.chips.capabilities import ChipCapabilities
from repro.radio.medium import RfMedium

__all__ = ["NRF51822_CAPABILITIES", "Nrf51822"]

NRF51822_CAPABILITIES = ChipCapabilities(
    name="nRF51822",
    supports_le_2m=False,
    supports_esb_2m=True,
    arbitrary_frequency=True,
    can_disable_whitening=True,
    can_disable_crc=True,
    raw_radio_access=True,
    cfo_std_hz=40e3,
)


class Nrf51822(BleRadioPeripheral):
    """A Gablys Lite tracker reflashed through its exposed SWD pins."""

    def __init__(
        self,
        medium: RfMedium,
        name: str = "nRF51822-tracker",
        position: Tuple[float, float] = (0.0, 0.0),
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(
            medium,
            capabilities=NRF51822_CAPABILITIES,
            name=name,
            position=position,
            rng=rng,
        )
