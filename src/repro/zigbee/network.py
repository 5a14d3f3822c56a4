"""The target Zigbee network of §VI-A.

Two XBee nodes on channel 14, PAN 0x1234: a sensor end device (0x0063)
reporting a value every two seconds, and a coordinator (0x0042) that
acknowledges the reports and appends them to a display log (the paper's
"HTML graph").  Both honour unauthenticated remote AT commands — the
default configuration the attack exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, MacFrame
from repro.dot15d4.mac import MacService
from repro.dot15d4.security import SecurityContext
from repro.radio.medium import RfMedium
from repro.zigbee.energy import Battery
from repro.zigbee.xbee import (
    AtCommand,
    RemoteAtCommand,
    SensorReading,
    XBEE_CHANNEL,
    XBEE_REMOTE_AT_ENABLED,
    parse_app_payload,
)

__all__ = [
    "XBeeNode",
    "SensorNode",
    "RouterNode",
    "CoordinatorNode",
    "DisplayEntry",
]


class XBeeNode:
    """Common XBee behaviour: MAC service + remote AT command handling."""

    def __init__(
        self,
        medium: RfMedium,
        address: Address,
        name: str,
        position: Tuple[float, float] = (0.0, 0.0),
        is_coordinator: bool = False,
        rng: Optional[np.random.Generator] = None,
        security: Optional[SecurityContext] = None,
        battery: Optional[Battery] = None,
        channel: int = XBEE_CHANNEL,
    ):
        self.radio = Dot15d4Radio(
            medium, name=name, position=position, rng=rng, channel=channel
        )
        self.mac = MacService(
            self.radio,
            address=address,
            is_coordinator=is_coordinator,
            security=security,
        )
        self.address = address
        self.name = name
        #: Cleared to model the §VII counter-measure (remote AT disabled).
        self.remote_at_enabled = XBEE_REMOTE_AT_ENABLED
        self.config_log: List[str] = []
        self.battery = battery
        #: Simulated time the battery ran out (None while alive) — the
        #: per-node datum behind fleet network-lifetime curves.
        self.depleted_at: Optional[float] = None
        if battery is not None:
            self.radio.activity_listener = self._charge_battery
        self.mac.on_data(self._on_data)

    def _charge_battery(self, kind: str, duration_s: float) -> None:
        assert self.battery is not None
        self.battery.charge_activity(kind, duration_s)
        if self.battery.depleted and self.depleted_at is None:
            self.depleted_at = self.scheduler.now
            self.config_log.append("battery depleted — node dead")
            self.stop()

    @property
    def scheduler(self):
        return self.radio.transceiver.medium.scheduler

    def start(self) -> None:
        self.mac.start()

    def stop(self) -> None:
        self.mac.stop()

    # -- application dispatch -------------------------------------------------
    def _on_data(self, frame: MacFrame) -> None:
        app = parse_app_payload(frame.payload)
        if isinstance(app, RemoteAtCommand):
            self._handle_remote_at(frame, app)
        else:
            self.handle_application(frame, app)

    def handle_application(self, frame: MacFrame, app) -> None:
        """Hook for subclasses."""

    def _handle_remote_at(self, frame: MacFrame, command: RemoteAtCommand) -> None:
        if not self.remote_at_enabled:
            self.config_log.append(f"rejected remote AT {command.command!r}")
            return
        if command.command == AtCommand.CHANNEL and command.parameter:
            new_channel = command.parameter[0]
            self.config_log.append(
                f"remote AT CH: channel {self.radio.channel} -> {new_channel}"
            )
            self.radio.set_channel(new_channel)
        elif command.command == AtCommand.PAN_ID and len(command.parameter) >= 2:
            new_pan = int.from_bytes(command.parameter[:2], "little")
            self.config_log.append(f"remote AT ID: pan -> {new_pan:#06x}")
            self.mac.address = Address(
                pan_id=new_pan, address=self.address.address
            )
            self.address = self.mac.address
        else:
            self.config_log.append(f"remote AT {command.command!r} ignored")


class SensorNode(XBeeNode):
    """The end device: reports ``value`` every *report_interval_s*.

    ``uplink`` is where reports go — the coordinator in a star topology, a
    :class:`RouterNode` one hop up in a mesh.  ``phase_s`` offsets the
    first report so a fleet of sensors sharing an interval does not
    synchronise into one periodic collision storm.
    """

    def __init__(
        self,
        medium: RfMedium,
        address: Address,
        coordinator: Address,
        name: str = "xbee-sensor",
        position: Tuple[float, float] = (0.0, 0.0),
        report_interval_s: float = 2.0,
        phase_s: float = 0.0,
        uplink: Optional[Address] = None,
        value_source: Optional[Callable[[], int]] = None,
        rng: Optional[np.random.Generator] = None,
        security: Optional[SecurityContext] = None,
        battery: Optional[Battery] = None,
        channel: int = XBEE_CHANNEL,
    ):
        super().__init__(
            medium,
            address,
            name,
            position=position,
            rng=rng,
            security=security,
            battery=battery,
            channel=channel,
        )
        self.coordinator = coordinator
        self.uplink = uplink if uplink is not None else coordinator
        self.report_interval_s = report_interval_s
        self.phase_s = phase_s
        self.value_source = value_source or (lambda: 21)
        self.counter = 0
        self.reports_sent = 0
        self.reports_delivered = 0
        self.reports_dropped = 0
        self._running = False

    def start(self) -> None:
        super().start()
        if not self._running:
            self._running = True
            self.scheduler.schedule(
                self.report_interval_s + self.phase_s, self._report
            )

    def stop(self) -> None:
        self._running = False
        super().stop()

    def _report(self) -> None:
        if not self._running:
            return
        self.counter = (self.counter + 1) & 0xFFFF
        reading = SensorReading(counter=self.counter, value=self.value_source())
        self.mac.send_data(
            self.uplink, reading.to_payload(), on_result=self._report_result
        )
        self.reports_sent += 1
        self.scheduler.schedule(self.report_interval_s, self._report)

    def _report_result(self, sequence: int, delivered: bool) -> None:
        if delivered:
            self.reports_delivered += 1
        else:
            self.reports_dropped += 1


class RouterNode(XBeeNode):
    """A one-hop mesh relay: re-addresses sensor readings to its uplink.

    Zigbee proper routes at the NWK layer; this router models the piece
    that matters for medium-scale dynamics — every forwarded report costs
    a second MAC transaction (CSMA-CA, ACK, retries) and a second slice of
    somebody's battery.
    """

    def __init__(
        self,
        medium: RfMedium,
        address: Address,
        uplink: Address,
        name: str = "xbee-router",
        position: Tuple[float, float] = (0.0, 0.0),
        battery: Optional[Battery] = None,
        channel: int = XBEE_CHANNEL,
    ):
        super().__init__(
            medium,
            address,
            name,
            position=position,
            battery=battery,
            channel=channel,
        )
        self.uplink = uplink
        self.forwarded = 0
        self.forward_delivered = 0
        self.forward_dropped = 0

    def handle_application(self, frame: MacFrame, app) -> None:
        if isinstance(app, SensorReading) and frame.source is not None:
            self.forwarded += 1
            self.mac.send_data(
                self.uplink, app.to_payload(), on_result=self._forward_result
            )

    def _forward_result(self, sequence: int, delivered: bool) -> None:
        if delivered:
            self.forward_delivered += 1
        else:
            self.forward_dropped += 1


@dataclass
class DisplayEntry:
    """One point on the coordinator's "HTML graph"."""

    time: float
    counter: int
    value: int
    source: int


class CoordinatorNode(XBeeNode):
    """The coordinator: acknowledges reports and keeps the display log."""

    def __init__(
        self,
        medium: RfMedium,
        address: Address,
        name: str = "xbee-coordinator",
        position: Tuple[float, float] = (0.0, 0.0),
        rng: Optional[np.random.Generator] = None,
        security: Optional[SecurityContext] = None,
        battery: Optional[Battery] = None,
        channel: int = XBEE_CHANNEL,
    ):
        super().__init__(
            medium,
            address,
            name,
            position=position,
            is_coordinator=True,
            rng=rng,
            security=security,
            battery=battery,
            channel=channel,
        )
        self.display: List[DisplayEntry] = []

    def handle_application(self, frame: MacFrame, app) -> None:
        if isinstance(app, SensorReading) and frame.source is not None:
            self.display.append(
                DisplayEntry(
                    time=self.scheduler.now,
                    counter=app.counter,
                    value=app.value,
                    source=frame.source.address,
                )
            )
