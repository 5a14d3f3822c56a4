"""The §V experimental environment.

The paper's benchmarks place the device under test and the reference Zigbee
transceiver (AVR RZUSBStick) three metres apart, in a lab where WiFi
networks occupy channels 6 and 11 — the cause of the small per-channel dips
in Table III.  :func:`build_testbed` reproduces that environment with
seedable randomness, and :func:`build_bench` puts the two devices in it,
armed for one primitive: the bench behind Table III, the sniffer service
and the chip ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.chips import BleRadioPeripheral, RzUsbStick
from repro.core.firmware import WazaBeeFirmware
from repro.core.rx import DecodedFrame
from repro.dot15d4.frames import Address, MacFrame, build_data
from repro.faults import FaultInjector, FaultPlan
from repro.radio.interference import WifiInterferer
from repro.radio.medium import PropagationModel, RfMedium
from repro.radio.scheduler import Scheduler

__all__ = [
    "Testbed",
    "build_testbed",
    "Bench",
    "build_bench",
    "counter_frame",
]

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)


#: The calibrated §V bench (Table III's shape), read by the narrowband
#: testbed below and by the wideband front end
#: (:class:`repro.chips.wideband.WidebandFrontEnd`).
DISTANCE_M = 3.0
TX_POWER_DBM = 0.0
NOISE_FLOOR_DBM = -100.0
PATH_LOSS_EXPONENT = 2.5
SHADOWING_SIGMA_DB = 4.0
WIFI_CHANNELS: Tuple[int, ...] = (6, 11)
WIFI_POWER_DBM = -37.0
WIFI_DUTY_CYCLE = 0.06
SAMPLE_RATE = 16e6


@dataclass
class Testbed:
    """A constructed environment, ready for devices to attach."""

    scheduler: Scheduler
    medium: RfMedium
    rng: np.random.Generator

    @property
    def attacker_position(self) -> Tuple[float, float]:
        return (0.0, 0.0)

    @property
    def reference_position(self) -> Tuple[float, float]:
        return (DISTANCE_M, 0.0)

    def device_rng(self, stream: int) -> np.random.Generator:
        """Derive an independent per-device generator."""
        seed_seq = np.random.SeedSequence(
            entropy=int(self.rng.integers(0, 2**63)), spawn_key=(stream,)
        )
        return np.random.default_rng(seed_seq)


def build_testbed(
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
) -> Testbed:
    """Stand up the paper's bench environment.

    *fault_plan* optionally degrades the bench with scripted impairments
    (see :mod:`repro.faults`) — the knob behind the ``--chaos`` CLI flag.
    """
    scheduler = Scheduler()
    rng = np.random.default_rng(seed)
    interferers = [
        WifiInterferer(
            channel=ch,
            power_dbm=WIFI_POWER_DBM,
            duty_cycle=WIFI_DUTY_CYCLE,
        )
        for ch in WIFI_CHANNELS
    ]
    medium = RfMedium(
        scheduler,
        sample_rate=SAMPLE_RATE,
        noise_floor_dbm=NOISE_FLOOR_DBM,
        propagation=PropagationModel(
            exponent=PATH_LOSS_EXPONENT,
            shadowing_sigma_db=SHADOWING_SIGMA_DB,
        ),
        interferers=interferers,
        seed=seed + 1,
    )
    if fault_plan is not None and not fault_plan.is_clean():
        medium.install_fault_injector(FaultInjector(fault_plan))
    return Testbed(scheduler=scheduler, medium=medium, rng=rng)


def counter_frame(counter: int) -> MacFrame:
    """The bench's test frame: a data frame carrying a 16-bit counter."""
    return build_data(
        source=_SRC,
        destination=_DST,
        payload=b"\x10" + (counter & 0xFFFF).to_bytes(2, "little"),
        sequence_number=counter & 0xFF,
        ack_request=False,
    )


@dataclass
class Bench:
    """The §V bench: a diverted chip and the RZUSBStick, 3 m apart.

    *received* collects the ``(psdu, fcs_ok)`` of every reception on the
    receiving side, unless the sniffer was given its own raw tap.
    """

    testbed: Testbed
    chip: BleRadioPeripheral
    reference: RzUsbStick
    firmware: WazaBeeFirmware
    primitive: str
    received: List[Tuple[bytes, bool]] = field(default_factory=list, init=False)

    def slot(self, frame: MacFrame) -> List[Tuple[bytes, bool]]:
        """Send *frame* from the transmitting side, run one 2 ms slot, and
        return the receiving side's outcomes."""
        self.received.clear()
        if self.primitive == "rx":
            self.reference.transmit_frame(frame)
        else:
            self.firmware.transmitter.transmit(frame)
        self.testbed.scheduler.run(2e-3)
        return self.received


def build_bench(
    chip_factory: Callable,
    primitive: str,
    channel: int,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    raw_tap: Optional[Callable[[DecodedFrame], None]] = None,
) -> Bench:
    """Stand up the bench for *primitive* on Zigbee *channel*.

    ``rx``: the reference transmits, and the chip's WazaBee sniffer hands
    every decode, FCS-valid or not, to *raw_tap* (default: the bench's
    :attr:`Bench.received`).  ``tx``: the chip's WazaBee transmitter is
    configured for *channel*, and the reference receives.
    """
    if primitive not in ("rx", "tx"):
        raise ValueError("primitive must be 'rx' or 'tx'")
    testbed = build_testbed(seed=seed, fault_plan=fault_plan)
    # Each device_rng call draws from testbed.rng: chip first, then the
    # reference, so every device stream depends on this order.
    chip = chip_factory(
        testbed.medium,
        position=testbed.attacker_position,
        rng=testbed.device_rng(1),
    )
    reference = RzUsbStick(
        testbed.medium,
        position=testbed.reference_position,
        rng=testbed.device_rng(2),
    )
    reference.set_channel(channel)
    firmware = WazaBeeFirmware(chip, testbed.scheduler)
    bench = Bench(testbed, chip, reference, firmware, primitive)
    record = bench.received.append
    if primitive == "rx":
        firmware.start_sniffer(
            channel,
            lambda _frame, _decoded: None,
            raw_tap=raw_tap or (lambda d: record((d.psdu, d.fcs_ok))),
        )
    else:
        reference.start_rx(lambda r: record((r.psdu, r.fcs_ok)))
        firmware.transmitter.configure(channel)
    return bench
