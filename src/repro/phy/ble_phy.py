"""The BLE GFSK modem definition.

One place for the physical-layer parameters of the BLE modes (and the
Enhanced ShockBurst 2 Mbit/s mode that Scenario B's nRF51822 falls back
to, which shares LE 2M's symbol rate): the chip models and the wideband
Table III sweep build their modems here.

BLE mandates BT = 0.5 and a modulation index between 0.45 and 0.55.  The
transmitter shapes with the Gaussian filter; the receiver's discriminator
applies none.  :func:`modem_config` keeps the index a parameter, checked
against the spec window, for sweeps of how the WazaBee approximation
degrades away from 0.5.
"""

from __future__ import annotations

from typing import Optional

from repro.ble.packets import PhyMode
from repro.dsp.gfsk import FskDemodulator, FskModulator, GfskConfig

__all__ = [
    "BLE_BT",
    "BLE_MODULATION_INDEX",
    "DEFAULT_SAMPLES_PER_SYMBOL",
    "ble_modulator",
    "ble_demodulator",
    "modem_config",
]

DEFAULT_SAMPLES_PER_SYMBOL = 8
#: Nominal modulation index of every modelled BLE radio.
BLE_MODULATION_INDEX = 0.5
#: Gaussian filter bandwidth-time product of the BLE transmitter.
BLE_BT = 0.5


def modem_config(
    modulation_index: float = BLE_MODULATION_INDEX,
    bt: Optional[float] = BLE_BT,
    samples_per_symbol: int = DEFAULT_SAMPLES_PER_SYMBOL,
) -> GfskConfig:
    """Build a :class:`GfskConfig`, validating the BLE tolerance window."""
    if not 0.45 <= modulation_index <= 0.55:
        raise ValueError(
            "BLE requires a modulation index within [0.45, 0.55]; "
            f"got {modulation_index} (use GfskConfig directly for ablations)"
        )
    return GfskConfig(
        samples_per_symbol=samples_per_symbol,
        modulation_index=modulation_index,
        bt=bt,
    )


def ble_modulator(
    phy: PhyMode, samples_per_symbol: int = DEFAULT_SAMPLES_PER_SYMBOL
) -> FskModulator:
    """GFSK (BT = 0.5) modulator for a BLE PHY mode."""
    config = modem_config(samples_per_symbol=samples_per_symbol)
    return FskModulator(config, phy.symbol_rate)


def ble_demodulator(
    phy: PhyMode, samples_per_symbol: int = DEFAULT_SAMPLES_PER_SYMBOL
) -> FskDemodulator:
    """FSK demodulator (no Gaussian filter) matched to a BLE PHY mode."""
    config = modem_config(bt=None, samples_per_symbol=samples_per_symbol)
    return FskDemodulator(config, phy.symbol_rate)
