"""Physical-layer definitions for the two protocols.

* :mod:`repro.phy.ieee802154` — the 802.15.4 PHY: PPDU framing
  (preamble / SFD / PHR / PSDU), the 16-entry PN-sequence table (the paper's
  Table I) and DSSS spreading / Hamming-distance despreading.
* :mod:`repro.phy.ble_phy` — GFSK modem factories for the BLE LE 1M and
  LE 2M physical layers (and the nRF51's Enhanced ShockBurst 2 Mbit/s
  fallback used in Scenario B).
"""

from repro.phy.ieee802154 import (
    CHIPS_PER_SYMBOL,
    PN_SEQUENCES,
    Ppdu,
    despread_chips,
    spread_bytes,
)
from repro.phy.ble_phy import ble_demodulator, ble_modulator

__all__ = [
    "PN_SEQUENCES",
    "CHIPS_PER_SYMBOL",
    "spread_bytes",
    "despread_chips",
    "Ppdu",
    "ble_modulator",
    "ble_demodulator",
]
