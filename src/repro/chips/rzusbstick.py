"""Native IEEE 802.15.4 transceiver model (AVR RZUSBStick / XBee radio).

The ground-truth end of the paper's benchmarks: a real O-QPSK radio that
spreads PSDUs to chips on TX and, on RX, synchronises on the preamble,
recovers chips (via the MSK equivalence, as low-IF 802.15.4 receivers do),
despreads each 32-chip block by minimum Hamming distance, locates the SFD
and checks the FCS.

Used both as the paper's measurement instrument (§V) and as the radio
inside the XBee network nodes of §VI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.dot15d4.channels import CHANNEL_BANDWIDTH_HZ, channel_frequency_hz
from repro.dot15d4.frames import MacFrame
from repro.dsp.oqpsk import oqpsk_modems
from repro.dsp.signal import IQSignal
from repro.phy.batch import BatchDecodedFrame, DecodedFrame, decode_chip_frames
from repro.phy.ieee802154 import Ppdu
from repro.radio.medium import RfMedium, Transmission
from repro.radio.transceiver import Transceiver

__all__ = ["ReceivedPsdu", "Dot15d4Radio", "RzUsbStick"]


@dataclass
class ReceivedPsdu:
    """A frame as seen by the 802.15.4 receiver."""

    psdu: bytes
    fcs_ok: bool
    channel: int
    timestamp: float
    mean_chip_distance: float


PsduHandler = Callable[[ReceivedPsdu], None]

#: Standard deviation of a native 802.15.4 radio's per-transmission carrier
#: frequency error.  Every native radio transmits at 0 dBm.
CFO_STD_HZ = 10e3


class Dot15d4Radio:
    """A native 802.15.4 2.4 GHz radio, built tuned to *channel*."""

    def __init__(
        self,
        medium: RfMedium,
        name: str = "802.15.4",
        position: Tuple[float, float] = (0.0, 0.0),
        rng: Optional[np.random.Generator] = None,
        channel: int = 11,
    ):
        self.name = name
        spc = medium.sample_rate / 2e6
        if abs(spc - round(spc)) > 1e-9:
            raise ValueError("medium sample rate must be a multiple of 2 MHz")
        self.transceiver = Transceiver(
            medium,
            name=name,
            position=position,
            bandwidth_hz=CHANNEL_BANDWIDTH_HZ,
            cfo_std_hz=CFO_STD_HZ,
            rng=rng,
            tuned_hz=channel_frequency_hz(channel),
        )
        # The receive chain runs in single precision: the transceiver
        # filters every capture to complex64, and discrimination, sync
        # and slicing keep it.
        self.transceiver.capture_dtype = np.dtype(np.complex64)
        self._modulator, self._demodulator = oqpsk_modems(int(spc))
        self._channel = channel
        self._handler: Optional[PsduHandler] = None
        #: Optional hook ``(kind, duration_s)`` with kind in {"tx", "rx"} —
        #: the attachment point for node energy accounting.
        self.activity_listener: Optional[Callable[[str, float], None]] = None

    @property
    def rng(self) -> np.random.Generator:
        """The radio's one random stream: its transceiver's CFO stream."""
        return self.transceiver.rng

    # -- configuration ------------------------------------------------------
    def set_channel(self, channel: int) -> None:
        self.transceiver.tune(channel_frequency_hz(channel))
        self._channel = channel

    @property
    def channel(self) -> int:
        return self._channel

    # -- transmit ---------------------------------------------------------------
    def transmit_psdu(self, psdu: bytes) -> Transmission:
        """Spread and send a PSDU (must already include its FCS)."""
        chips = Ppdu(psdu).to_chips()
        signal = self._modulator.modulate(chips)
        if self.activity_listener is not None:
            self.activity_listener("tx", signal.duration)
        return self.transceiver.transmit(signal)

    def transmit_frame(self, frame: MacFrame) -> Transmission:
        return self.transmit_psdu(frame.to_bytes())

    # -- receive -----------------------------------------------------------------
    def start_rx(self, handler: PsduHandler) -> None:
        self._handler = handler
        self.transceiver.start_rx(self._on_capture, stacked=self)

    def stop_rx(self) -> None:
        self._handler = None
        self.transceiver.stop_rx()

    # The medium decodes a transmission's captures as one stack
    # (repro.radio.transceiver.StackedReceiver); a capture handed to the
    # transceiver directly is decoded as a stack of one.
    def decode_rows(self, rows: np.ndarray) -> List[Optional[BatchDecodedFrame]]:
        """Decode filtered captures ``(F, N)``."""
        return decode_chip_frames(rows, self._demodulator.samples_per_chip)

    def take_row(self, frame: Optional[DecodedFrame], duration_s: float) -> None:
        """Receive a frame (or nothing) decoded from a stacked capture."""
        if self._powered_rx(duration_s) and frame is not None:
            self._handler(self._received(frame))

    def _powered_rx(self, duration_s: float) -> bool:
        """Charge a reception; False when nobody (any longer) takes frames."""
        if self._handler is None:
            return False
        if self.activity_listener is not None:
            self.activity_listener("rx", duration_s)
            # The listener may have powered the node down (battery death).
            return self._handler is not None
        return True

    def _on_capture(self, capture: IQSignal, _tx: Transmission) -> None:
        self.take_row(self._decode_chips(capture), capture.duration)

    def _decode_chips(self, capture: IQSignal) -> Optional[BatchDecodedFrame]:
        """Decode one filtered capture as a stack of one."""
        # A name of its own only because fleetbench/spans.py times it.
        return self.decode_rows(capture.samples[None])[0]

    def _received(self, frame: DecodedFrame) -> ReceivedPsdu:
        return ReceivedPsdu(
            psdu=frame.psdu,
            fcs_ok=frame.fcs_ok,
            channel=self._channel,
            timestamp=self.transceiver.medium.scheduler.now,
            mean_chip_distance=frame.mean_distance,
        )


class RzUsbStick(Dot15d4Radio):
    """The Atmel AVR RZUSBStick — the paper's reference Zigbee instrument."""

    def __init__(
        self,
        medium: RfMedium,
        position: Tuple[float, float] = (0.0, 0.0),
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(medium, name="RZUSBStick", position=position, rng=rng)
