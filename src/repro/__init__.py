"""WazaBee reproduction — attacking Zigbee networks by diverting BLE chips.

This package reproduces the system described in:

    R. Cayre, F. Galtier, G. Auriol, V. Nicomette, M. Kaâniche, G. Marconato,
    "WazaBee: attacking Zigbee networks by diverting Bluetooth Low Energy
    chips", IEEE/IFIP DSN 2021.

Because the paper's experiments require physical radios, the whole RF path is
reproduced as a complex-baseband, sample-level simulation (see DESIGN.md for
the substitution table).  The layering is:

``repro.utils``
    Bit/byte manipulation, Hamming distance, generic CRC and LFSR engines.
``repro.dsp``
    Modulators/demodulators (GFSK/MSK, O-QPSK half-sine) and channel
    impairments operating on complex-baseband sample vectors.
``repro.phy`` / ``repro.ble`` / ``repro.dot15d4`` / ``repro.zigbee``
    Protocol stacks for BLE 5 and IEEE 802.15.4 / Zigbee(XBee).
``repro.radio`` / ``repro.chips``
    A shared RF medium and capability-gated chip models.
``repro.core``
    The paper's contribution: the PN→MSK correspondence table (Algorithm 1),
    the WazaBee transmission and reception primitives, and the BLE↔Zigbee
    channel map (Table II).
``repro.attacks`` / ``repro.ids``
    The two end-to-end attack scenarios (§VI) and the counter-measure
    substrate (§VII).
``repro.experiments``
    Harnesses regenerating every table and figure of the paper.
"""

from repro.core.channel_map import (
    COMMON_CHANNELS,
    ble_channel_for_zigbee,
)
from repro.core.tables import CorrespondenceTable, pn_to_msk

__version__ = "1.0.0"

__all__ = [
    "CorrespondenceTable",
    "pn_to_msk",
    "COMMON_CHANNELS",
    "ble_channel_for_zigbee",
    "__version__",
]
