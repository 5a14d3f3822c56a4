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
from typing import Callable, Hashable, List, Optional, Tuple

import numpy as np

from repro.dot15d4.channels import channel_frequency_hz
from repro.dot15d4.frames import MacFrame
from repro.dsp.oqpsk import oqpsk_modems
from repro.dsp.signal import IQSignal
from repro.errors import DecodeError
from repro.phy.batch import (
    MAX_FRAME_CHIPS,
    RESYNC_ATTEMPTS,
    SYNC_CHIPS,
    SYNC_START_INDEX,
    BatchDecodedFrame,
    DecodedFrame,
    decode_chip_frames,
    frame_tail,
)
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, Ppdu, despread_chips
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

    def to_mac_frame(self, check_fcs: bool = True) -> MacFrame:
        return MacFrame.parse(self.psdu, check_fcs=check_fcs)


PsduHandler = Callable[[ReceivedPsdu], None]


class Dot15d4Radio:
    """A native 802.15.4 2.4 GHz radio, built tuned to *channel*."""

    def __init__(
        self,
        medium: RfMedium,
        name: str = "802.15.4",
        position: Tuple[float, float] = (0.0, 0.0),
        tx_power_dbm: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        cfo_std_hz: float = 10e3,
        sync_threshold: float = 0.45,
        max_chip_distance: int = 12,
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
            bandwidth_hz=2e6,
            tx_power_dbm=tx_power_dbm,
            cfo_std_hz=cfo_std_hz,
            rng=rng,
            tuned_hz=channel_frequency_hz(channel),
        )
        # The receive chain runs in single precision: the transceiver
        # filters every capture to complex64, and discrimination, sync
        # and slicing keep it.
        self.transceiver.capture_dtype = np.dtype(np.complex64)
        self._modulator, self._demodulator = oqpsk_modems(int(spc))
        self.sync_threshold = sync_threshold
        self.max_chip_distance = max_chip_distance
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
    # (repro.radio.transceiver.StackedReceiver); _on_capture takes the
    # captures delivered one at a time.
    @property
    def stack_key(self) -> Hashable:
        demodulator = self._demodulator
        return (
            demodulator.samples_per_chip,
            demodulator.chip_rate,
            self.sync_threshold,
            self.max_chip_distance,
        )

    def decode_rows(self, rows: np.ndarray) -> List[Optional[BatchDecodedFrame]]:
        """Decode filtered captures ``(F, N)`` with this radio's settings."""
        return decode_chip_frames(
            rows,
            self._demodulator.samples_per_chip,
            self._demodulator.chip_rate,
            sync_threshold=self.sync_threshold,
            max_chip_distance=self.max_chip_distance,
        )

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
        if not self._powered_rx(capture.duration):
            return
        # One-row run of the receive engine (repro.phy.batch): the front
        # end runs once; each lock that yields no frame re-arms the
        # correlator one symbol further on.
        demodulator = self._demodulator
        front_end = demodulator.front_end(capture)
        search_start = 0
        for _attempt in range(RESYNC_ATTEMPTS):
            result = demodulator.receive_chips(
                capture,
                sync_chips=SYNC_CHIPS,
                sync_start_index=SYNC_START_INDEX,
                max_chips=MAX_FRAME_CHIPS,
                threshold=self.sync_threshold,
                search_start=search_start,
                front_end=front_end,
            )
            if result is None:
                return
            chips, info = result
            psdu = self._decode_chips(chips)
            if psdu is not None:
                self._handler(psdu)
                return
            search_start = (
                info.sync.start + CHIPS_PER_SYMBOL * demodulator.samples_per_chip
            )

    def _decode_chips(self, chips: np.ndarray) -> Optional[ReceivedPsdu]:
        """Despread and frame-tail one chip stream."""
        symbols, distances, _llrs = despread_chips(chips)
        try:
            frame = frame_tail(
                symbols.tolist(),
                distances.tolist(),
                max_mean_distance=self.max_chip_distance or None,
            )
        except DecodeError:
            return None
        return self._received(frame)

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
        name: str = "RZUSBStick",
        position: Tuple[float, float] = (0.0, 0.0),
        tx_power_dbm: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(
            medium,
            name=name,
            position=position,
            tx_power_dbm=tx_power_dbm,
            rng=rng,
            cfo_std_hz=10e3,
        )
