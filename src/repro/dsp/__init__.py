"""Complex-baseband signal processing substrate.

Everything the paper says about waveforms happens here:

* :mod:`repro.dsp.signal` — the :class:`IQSignal` container (complex
  baseband samples + sample rate + RF centre frequency).
* :mod:`repro.dsp.filters` — Gaussian pulse shaping (GFSK), half-sine pulses
  (O-QPSK) and generic FIR low-pass filters.
* :mod:`repro.dsp.gfsk` — the (G)FSK/MSK modulator and the
  quadrature-discriminator demodulator used by the BLE chip models.
* :mod:`repro.dsp.oqpsk` — the 802.15.4 O-QPSK-with-half-sine modulator and
  the MSK-domain chip demodulator used by the Zigbee radio models.
* :mod:`repro.dsp.impairments` — AWGN and carrier-frequency offset.
* :mod:`repro.dsp.spectrum` — PSD estimation.
"""

from repro.dsp.signal import IQSignal
from repro.dsp.gfsk import FskDemodulator, FskModulator, GfskConfig
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator

__all__ = [
    "IQSignal",
    "GfskConfig",
    "FskModulator",
    "FskDemodulator",
    "OqpskModulator",
    "OqpskDemodulator",
]
