"""WazaBee "malicious firmware".

Ties both primitives to one compromised chip and layers the small amount of
802.15.4 logic the attack scenarios need on top: frame injection, sniffing
with MAC decoding, and active scanning (Beacon Request / Beacon collection),
mirroring the capabilities the paper demonstrates flashing onto the Gablys
tracker in §VI-C.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from repro.core.radio_api import LowLevelRadio
from repro.core.rx import DecodedFrame, WazaBeeReceiver
from repro.core.tx import WazaBeeTransmitter
from repro.dot15d4.frames import FrameType, MacFrame, build_beacon_request
from repro.obs import FIRMWARE_DROP
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.radio.scheduler import Scheduler

__all__ = ["RAW_FRAME_CAP", "ScanResult", "WazaBeeFirmware"]

#: Retention cap for :attr:`WazaBeeFirmware.raw_frames`.  Long sniffs and
#: active scans (scenario B runs under a watchdog, not a frame budget) would
#: otherwise grow the list without bound; 4096 frames is hours of typical
#: Zigbee traffic while bounding memory.  The total ever decoded is tracked
#: separately in :attr:`WazaBeeFirmware.raw_frames_seen`.
RAW_FRAME_CAP = 4096


@dataclass
class ScanResult:
    """One network discovered by active scanning."""

    channel: int
    pan_id: int
    coordinator_address: int
    address_mode: int


SnifferHandler = Callable[[MacFrame, DecodedFrame], None]


class WazaBeeFirmware:
    """Attack firmware running on a diverted BLE chip."""

    def __init__(self, radio: LowLevelRadio, scheduler: Scheduler):
        self.radio = radio
        self.scheduler = scheduler
        self.transmitter = WazaBeeTransmitter(radio)
        self.receiver = WazaBeeReceiver(radio)
        self._sniffer_handler: Optional[SnifferHandler] = None
        self._raw_tap: Optional[Callable[[DecodedFrame], None]] = None
        self._sniffing_channel: Optional[int] = None
        self.scan_results: List[ScanResult] = []
        #: Ring buffer of the most recent decodes (valid *and* corrupted).
        self.raw_frames: Deque[DecodedFrame] = deque(maxlen=RAW_FRAME_CAP)
        #: Monotonic count of every frame the firmware's handlers received
        #: (valid *and* corrupted), unaffected by the ring buffer evicting
        #: old entries.  Reconciles with the receiver's trace ledger as
        #: ``rx.frames.valid_delivered + rx.frames.corrupt_delivered`` for
        #: deliveries made while the sniffer was running.
        self.raw_frames_seen: int = 0
        #: How many decodes the ring buffer evicted to admit newer ones.
        #: ``len(raw_frames) + raw_frames_dropped == raw_frames_seen`` at
        #: all times — the eviction half of the raw-frame ledger.
        self.raw_frames_dropped: int = 0
        self.trace = _current_bus()
        self.metrics = _current_metrics()

    # -- injection ----------------------------------------------------------
    def send_frame(self, frame: MacFrame, channel: int) -> None:
        """Inject one 802.15.4 MAC frame on a Zigbee channel."""
        self.transmitter.configure(channel)
        self.transmitter.transmit(frame)

    # -- sniffing -------------------------------------------------------------
    def start_sniffer(
        self,
        channel: int,
        handler: SnifferHandler,
        raw_tap: Optional[Callable[[DecodedFrame], None]] = None,
    ) -> None:
        """Receive 802.15.4 frames on *channel*; MAC-decode valid ones.

        *handler* only sees FCS-valid, MAC-parseable frames.  *raw_tap*,
        when given, sees every decode — FCS-valid and corrupted alike —
        the hook Table III's corrupted-frame accounting is built on.
        """
        self._sniffer_handler = handler
        self._raw_tap = raw_tap
        self._sniffing_channel = channel
        # The receiver routes FCS-valid and FCS-failed frames to disjoint
        # handlers; the firmware funnels both into the raw stream.
        self.receiver.start(
            channel, self._on_frame, corrupt_handler=self._on_frame
        )

    def stop_sniffer(self) -> None:
        self.receiver.stop()
        self._sniffer_handler = None
        self._raw_tap = None
        self._sniffing_channel = None

    def _on_frame(self, decoded: DecodedFrame) -> None:
        if len(self.raw_frames) == self.raw_frames.maxlen:
            # The deque is about to evict its oldest decode: account for
            # it, so long sniffs never lose frames silently.
            self.raw_frames_dropped += 1
            self.metrics.counter("firmware.raw_frames_dropped").inc()
            if self.trace.active:
                self.trace.emit(
                    FIRMWARE_DROP,
                    time=self.scheduler.now,
                    dropped_total=self.raw_frames_dropped,
                    cap=self.raw_frames.maxlen,
                )
        self.raw_frames.append(decoded)
        self.raw_frames_seen += 1
        self.metrics.counter("firmware.raw_frames").inc()
        if self._raw_tap is not None:
            self._raw_tap(decoded)
        # fcs_ok re-check is defense-in-depth: the receiver already routes
        # FCS-failed frames to the corrupt path, but this method serves as
        # both targets.
        if self._sniffer_handler is None or not decoded.fcs_ok:
            return
        try:
            frame = MacFrame.parse(decoded.psdu)
        except ValueError:
            self.metrics.counter("firmware.mac_parse_failures").inc()
            return
        self.metrics.counter("firmware.sniffed_frames").inc()
        self._sniffer_handler(frame, decoded)

    # -- active scan --------------------------------------------------------------
    def active_scan(
        self,
        channels: Sequence[int],
        dwell_s: float = 0.05,
        on_complete: Optional[Callable[[List[ScanResult]], None]] = None,
    ) -> None:
        """§VI-C step 1: probe each channel with a Beacon Request.

        For every channel: transmit a Beacon Request, listen for beacons
        for *dwell_s*, record (channel, PAN id, coordinator address), then
        move on.  Results accumulate in :attr:`scan_results`;
        *on_complete* fires after the last channel.
        """
        remaining = list(channels)
        self.scan_results = []

        def scan_next() -> None:
            if not remaining:
                self.stop_sniffer()
                if on_complete is not None:
                    on_complete(self.scan_results)
                return
            channel = remaining.pop(0)
            self.stop_sniffer()
            self.start_sniffer(channel, collect)
            self.send_frame(build_beacon_request(), channel)
            self.scheduler.schedule(dwell_s, scan_next)

        def collect(frame: MacFrame, _decoded: DecodedFrame) -> None:
            if frame.frame_type is not FrameType.BEACON or frame.source is None:
                return
            result = ScanResult(
                channel=self._sniffing_channel or 0,
                pan_id=frame.source.pan_id,
                coordinator_address=frame.source.address,
                address_mode=int(frame.source.mode),
            )
            if not any(
                r.channel == result.channel and r.pan_id == result.pan_id
                for r in self.scan_results
            ):
                self.scan_results.append(result)

        scan_next()
