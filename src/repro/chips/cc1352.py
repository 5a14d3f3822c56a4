"""Texas Instruments CC1352-R1 model.

The paper's second implementation target (§V), chosen precisely because it
offers *fewer* configuration freedoms than the nRF52: we model that as a
whitener that cannot be switched off, forcing the primitives onto the
whitening pre-inversion path of §IV-D (the LFSR "is reversible ... it is
thus possible to build a sequence of bits which, once the transformation
has been applied, corresponds to the PN sequences").  Frequency selection
stays arbitrary — Table III covers all sixteen Zigbee channels on this chip
too.  The CC1352 natively supports 802.15.4, but — like the paper — only
its BLE capabilities are used here.

Its analogue front end is modelled tighter than the nRF52832's (smaller
carrier-frequency error), matching Table III's more stable CC1352 numbers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.chips.ble_radio import BleRadioPeripheral
from repro.chips.capabilities import ChipCapabilities
from repro.radio.medium import RfMedium

__all__ = ["CC1352R1_CAPABILITIES", "Cc1352R1"]

CC1352R1_CAPABILITIES = ChipCapabilities(
    name="CC1352-R1",
    supports_le_2m=True,
    supports_esb_2m=False,
    arbitrary_frequency=True,
    can_disable_whitening=False,
    can_disable_crc=True,
    raw_radio_access=True,
    cfo_std_hz=8e3,
)


class Cc1352R1(BleRadioPeripheral):
    """A CC1352-R1 LaunchPad, driven through its BLE API only."""

    def __init__(
        self,
        medium: RfMedium,
        name: str = "CC1352-R1",
        position: Tuple[float, float] = (0.0, 0.0),
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(
            medium,
            capabilities=CC1352R1_CAPABILITIES,
            name=name,
            position=position,
            rng=rng,
        )
