"""Chip capability descriptors.

§IV-D of the paper phrases the attack's feasibility per chip as a set of
radio freedoms; §VI shows how partial capability still allows partial
attacks.  :class:`ChipCapabilities` makes those freedoms explicit and the
radio models enforce them, raising :class:`CapabilityError` where real
hardware/APIs would refuse (or simply not expose) the operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RadioError

__all__ = ["ChipCapabilities", "CapabilityError"]


class CapabilityError(RadioError):
    """The chip (or its exposed API) cannot perform the requested operation.

    This is the dedicated exception :class:`~repro.core.radio_api.LowLevelRadio`
    implementations raise when a register-level operation is unavailable;
    the WazaBee primitives catch exactly this (and nothing broader) when
    probing optional features such as whitening control.
    """


@dataclass(frozen=True)
class ChipCapabilities:
    """Radio freedoms and analogue quality of a BLE chip model.

    Attributes
    ----------
    name:
        Marketing name, used in experiment output.
    supports_le_2m:
        Implements the Bluetooth 5 LE 2M PHY (requirement 1 of §IV-D).
    supports_esb_2m:
        Proprietary Enhanced ShockBurst 2 Mbit/s mode, usable as an LE 2M
        substitute on pre-BLE5 Nordic chips (Scenario B).
    arbitrary_frequency:
        Can tune any 2.4 GHz frequency (else restricted to the BLE grid —
        only Table II's eight common channels are reachable).
    can_disable_whitening:
        Whitening can be switched off (else TX must pre-invert it).
    can_disable_crc:
        Hardware CRC generation/checking can be switched off (needed by
        both primitives).
    raw_radio_access:
        Register-level control is available at all (false for the unrooted
        smartphone: only the HCI/advertising API is exposed).
    cfo_std_hz:
        Per-transmission carrier-frequency error (crystal quality).
    """

    name: str
    supports_le_2m: bool = True
    supports_esb_2m: bool = False
    arbitrary_frequency: bool = True
    can_disable_whitening: bool = True
    can_disable_crc: bool = True
    raw_radio_access: bool = True
    cfo_std_hz: float = 0.0
