"""The WazaBee reception primitive (§IV-D).

The diverted BLE receiver is configured so that its sync-word correlator
fires on the 802.15.4 preamble (Access Address = MSK-encoded ``0000`` PN
sequence), CRC checking is disabled, and the maximum payload length is
requested.  The demodulated bit stream is then decoded here:

* the stream is split into 32-bit strides (one DSSS symbol each: the
  symbol-boundary transition bit followed by the paper's 31-bit block);
* each 31-bit block is matched to the correspondence table by minimum
  Hamming distance;
* the Start-of-Frame Delimiter is located among the leading symbols (the
  correlator may have locked onto any of the eight preamble repetitions);
* the PHR length field delimits the PSDU, whose FCS is then verified —
  Table III's valid / corrupted / lost classification.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.ble.whitening import whiten
from repro.core.encoding import MSK_STRIDE
from repro.core.radio_api import LowLevelRadio, configure_wazabee
from repro.core.tables import default_table
from repro.errors import DecodeError
from repro.obs import RX_CAPTURE, RX_DECODE, RX_FCS
from repro.obs import metrics as _current_metrics
from repro.obs import sim_now
from repro.obs import trace_bus as _current_bus
from repro.phy.batch import MAX_FRAME_CHIPS, DecodedFrame, frame_tail

__all__ = ["DecodedFrame", "decode_payload_bits", "WazaBeeReceiver"]

#: Payload bits to request from the radio: one MSK bit per chip period of
#: the SHR remainder, PHR and a maximum-size PSDU.
MAX_CAPTURE_BITS = MAX_FRAME_CHIPS

#: Leading symbols searched for the SFD: the correlator may have locked on
#: any of the eight preamble repetitions.
SFD_SEARCH_LIMIT = 12


def decode_payload_bits(
    bits: np.ndarray, strict: bool = False
) -> Optional[DecodedFrame]:
    """Decode a raw post-Access-Address bit capture into an 802.15.4 frame.

    Returns ``None`` when no SFD is found or the frame is truncated.  With
    ``strict=True`` those outcomes raise :class:`~repro.errors.DecodeError`
    carrying the failure class (``no-sfd`` / ``truncated``) instead.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    num_strides = arr.size // MSK_STRIDE
    try:
        if num_strides < 3:
            raise DecodeError("truncated")
        # Stride layout: [symbol-boundary transition, 31 intra bits].
        # Reshape the capture into an (N, 31) block matrix and despread all
        # symbols in one vectorised pass.
        blocks = arr[: num_strides * MSK_STRIDE].reshape(
            num_strides, MSK_STRIDE
        )[:, 1:]
        symbol_arr, distance_arr = default_table().decode_blocks(blocks)
        symbols: List[int] = symbol_arr.tolist()
        distances: List[int] = distance_arr.tolist()
        # The correlator locked on the preamble, so the frame's leading
        # preamble symbols count towards its mean distance.
        return frame_tail(
            symbols,
            distances,
            search_limit=SFD_SEARCH_LIMIT,
            include_preamble=True,
        )
    except DecodeError:
        if strict:
            raise
        return None


FrameHandler = Callable[[DecodedFrame], None]


class WazaBeeReceiver:
    """Reception primitive bound to a low-level radio.

    Handler contract: every decoded frame is delivered to **exactly one**
    handler.  The main *handler* receives only FCS-valid frames; the
    optional *corrupt_handler* receives the FCS-failed ones — the salvage
    path: such a frame still carries per-symbol Hamming distances, so
    callers can localise the damage or fuse repeated corrupted receptions.
    Without a *corrupt_handler*, FCS-failed frames are dropped (counted in
    :attr:`corrupt_drops`).
    """

    def __init__(self, radio: LowLevelRadio):
        self.radio = radio
        self.corrupt_drops = 0
        self._handler: Optional[FrameHandler] = None
        self._corrupt_handler: Optional[FrameHandler] = None
        self._channel: Optional[int] = None
        self.trace = _current_bus()
        self.metrics = _current_metrics()

    def start(
        self,
        zigbee_channel: int,
        handler: FrameHandler,
        corrupt_handler: Optional[FrameHandler] = None,
    ) -> None:
        """Configure the radio per §IV-D
        (:func:`~repro.core.radio_api.configure_wazabee`) and begin
        receiving."""
        configure_wazabee(self.radio, zigbee_channel)
        self._handler = handler
        self._corrupt_handler = corrupt_handler
        self._channel = zigbee_channel
        self.radio.arm_receiver(MAX_CAPTURE_BITS, self._on_bits)

    def stop(self) -> None:
        self.radio.disarm_receiver()
        self._handler = None
        self._corrupt_handler = None

    def _on_bits(self, bits: np.ndarray) -> None:
        if self._handler is None:
            return
        now = sim_now(self.radio)
        self.metrics.counter("rx.captures").inc()
        if self.trace.active:
            self.trace.emit(
                RX_CAPTURE, time=now, bits=int(len(bits)), channel=self._channel
            )
        if self.radio.whitening_enabled:
            # The radio de-whitened what was never whitened; undo it.
            bits = whiten(bits, self.radio.whitening_channel)
        try:
            # Strict mode so the failure class (no-sfd / truncated) reaches
            # the trace; the event-driven contract stays "drop and carry on".
            with self.metrics.timer("rx.decode").time():
                frame = decode_payload_bits(bits, strict=True)
        except DecodeError as error:
            self.metrics.counter("rx.decode.failed").inc()
            self.metrics.counter(f"rx.decode.failed.{error.reason}").inc()
            if self.trace.active:
                self.trace.emit(
                    RX_DECODE,
                    time=now,
                    outcome=error.reason,
                    mean_distance=error.mean_distance,
                    channel=self._channel,
                )
            return
        self.metrics.counter("rx.decode.ok").inc()
        if self.trace.active:
            self.trace.emit(
                RX_DECODE,
                time=now,
                outcome="ok",
                mean_distance=frame.mean_distance,
                channel=self._channel,
            )
            self.trace.emit(
                RX_FCS,
                time=now,
                ok=frame.fcs_ok,
                psdu_bytes=len(frame.psdu),
                channel=self._channel,
            )
        if frame.fcs_ok:
            self.metrics.counter("rx.fcs.ok").inc()
        else:
            self.metrics.counter("rx.fcs.fail").inc()
            # FCS-failed frames take the salvage path only; the main
            # handler's contract is "FCS-valid frames".
            if self._corrupt_handler is not None:
                self.metrics.counter("rx.frames.corrupt_delivered").inc()
                self._corrupt_handler(frame)
            else:
                self.corrupt_drops += 1
                self.metrics.counter("rx.drops.corrupt").inc()
            return
        self.metrics.counter("rx.frames.valid_delivered").inc()
        self._handler(frame)

    @property
    def channel(self) -> Optional[int]:
        return self._channel
