"""The WazaBee transmission primitive (§IV-D).

Builds an arbitrary 802.15.4 frame, spreads it to chips, re-encodes the
chip stream as MSK rotation bits and hands those bits to the diverted BLE
radio at 2 Mbit/s on the target Zigbee channel's frequency.

Whitening handling follows the paper exactly: disable it when the chip
allows; otherwise *pre-apply* the (self-inverse) whitening transform so the
radio's whitener cancels it and the on-air bits equal the chip stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ble.whitening import whiten
from repro.core.encoding import frame_to_msk_bits
from repro.core.radio_api import LowLevelRadio, configure_wazabee
from repro.dot15d4.frames import MacFrame
from repro.obs import TX_FRAME
from repro.obs import metrics as _current_metrics
from repro.obs import sim_now
from repro.obs import trace_bus as _current_bus

__all__ = ["WazaBeeTransmitter"]


class WazaBeeTransmitter:
    """Transmission primitive bound to a low-level radio."""

    def __init__(self, radio: LowLevelRadio):
        self.radio = radio
        self._configured_channel: Optional[int] = None
        self.trace = _current_bus()
        self.metrics = _current_metrics()

    def configure(self, zigbee_channel: int) -> None:
        """Apply the §IV-D radio configuration for a Zigbee channel
        (:func:`~repro.core.radio_api.configure_wazabee`)."""
        configure_wazabee(self.radio, zigbee_channel)
        self._configured_channel = zigbee_channel

    def transmit(self, frame: MacFrame) -> np.ndarray:
        """Send a MAC frame; returns the payload bits given to the radio."""
        return self.transmit_psdu(frame.to_bytes())

    def transmit_psdu(self, psdu: bytes) -> np.ndarray:
        """Send a raw PSDU (FCS included) as an 802.15.4 frame."""
        if self._configured_channel is None:
            raise RuntimeError("call configure(zigbee_channel) first")
        with self.metrics.timer("tx.spread").time():
            bits = frame_to_msk_bits(psdu)
        if self.radio.whitening_enabled:
            # Pre-de-whiten so the hardware whitener restores the raw
            # stream on air (whitening is XOR with a fixed per-channel
            # sequence, hence an involution).
            bits = whiten(bits, self.radio.whitening_channel)
        self.radio.send_raw_bits(bits)
        self.metrics.counter("tx.frames").inc()
        if self.trace.active:
            self.trace.emit(
                TX_FRAME,
                time=sim_now(self.radio),
                channel=self._configured_channel,
                psdu_bytes=len(psdu),
                bits=int(bits.size),
            )
        return bits

    @property
    def channel(self) -> Optional[int]:
        return self._configured_channel
