"""Unit tests for the fault injector at the medium boundary."""

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, build_data
from repro.dot15d4.mac import MacService
from repro.faults import injector as injector_module
from repro.faults import (
    CaptureTruncation,
    CfoStep,
    CollisionBurst,
    DeliveryDuplication,
    DropoutWindow,
    FaultInjector,
    FaultPlan,
    SampleDrops,
)

PAN = 0x1234
ADDR_A = Address(pan_id=PAN, address=0x0001)
ADDR_B = Address(pan_id=PAN, address=0x0002)


def make_pair(medium):
    radio_a = Dot15d4Radio(
        medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
    )
    radio_b = Dot15d4Radio(
        medium, name="b", position=(2, 0), rng=np.random.default_rng(2)
    )
    mac_a = MacService(radio_a, address=ADDR_A)
    mac_b = MacService(radio_b, address=ADDR_B)
    mac_a.start()
    mac_b.start()
    return mac_a, mac_b


def send_once(mac, payload):
    """One data frame to B on the single-shot path: no CSMA, no ACK, no
    retry, so each fault meets exactly one transmission at t = 0."""
    mac.send_frame(
        build_data(
            source=mac.address,
            destination=ADDR_B,
            payload=payload,
            sequence_number=mac.next_sequence(),
            ack_request=False,
        )
    )


class TestInstallation:
    def test_double_install_rejected(self, quiet_medium):
        injector = FaultInjector(FaultPlan())
        quiet_medium.install_fault_injector(injector)
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install(quiet_medium)

    def test_bursts_enter_the_medium(self, quiet_medium, scheduler):
        plan = FaultPlan(
            bursts=(CollisionBurst(start_s=1e-3, duration_s=2e-3),)
        )
        injector = FaultInjector(plan)
        quiet_medium.install_fault_injector(injector)
        seen_busy = []
        radio = Dot15d4Radio(
            quiet_medium, name="probe", rng=np.random.default_rng(3)
        )
        radio.set_channel(14)
        scheduler.schedule_at(
            2e-3, lambda: seen_busy.append(quiet_medium.channel_busy(radio.transceiver))
        )
        scheduler.run(5e-3)
        assert injector.stats.bursts_injected == 1
        assert seen_busy == [True]

    def test_periodic_bursts_repeat(self, quiet_medium, scheduler):
        plan = FaultPlan(
            bursts=(
                CollisionBurst(
                    start_s=0.0, duration_s=0.5e-3, period_s=2e-3, count=4
                ),
            )
        )
        injector = FaultInjector(plan)
        quiet_medium.install_fault_injector(injector)
        scheduler.run(0.02)
        assert injector.stats.bursts_injected == 4


class TestDeliveryFaults:
    def test_dropout_window_loses_frames(self, quiet_medium, scheduler):
        injector = FaultInjector(
            FaultPlan(dropouts=(DropoutWindow(start_s=0.0, end_s=1.0),))
        )
        quiet_medium.install_fault_injector(injector)
        mac_a, mac_b = make_pair(quiet_medium)
        got = []
        mac_b.on_data(got.append)
        send_once(mac_a, b"lost")
        scheduler.run(0.01)
        assert got == []
        assert injector.stats.deliveries_dropped >= 1

    def test_duplication_exercises_mac_duplicate_rejection(
        self, quiet_medium, scheduler
    ):
        injector = FaultInjector(
            FaultPlan(duplication=DeliveryDuplication(every_nth=1))
        )
        quiet_medium.install_fault_injector(injector)
        mac_a, mac_b = make_pair(quiet_medium)
        got = []
        mac_b.on_data(got.append)
        send_once(mac_a, b"twice")
        scheduler.run(0.01)
        assert len(got) == 1
        assert mac_b.stats.duplicates >= 1
        assert injector.stats.deliveries_duplicated >= 1


class TestCaptureFaults:
    def test_truncation_destroys_reception(self, quiet_medium, scheduler):
        injector = FaultInjector(
            FaultPlan(
                truncation=CaptureTruncation(every_nth=1, keep_fraction=0.05)
            )
        )
        quiet_medium.install_fault_injector(injector)
        mac_a, mac_b = make_pair(quiet_medium)
        got = []
        mac_b.on_data(got.append)
        send_once(mac_a, b"chopped")
        scheduler.run(0.01)
        assert got == []
        assert injector.stats.captures_truncated >= 1

    def test_sample_drops_counted(self, quiet_medium, scheduler, monkeypatch):
        monkeypatch.setattr(injector_module, "SAMPLE_DROPS_EVERY_NTH", 1)
        injector = FaultInjector(
            FaultPlan(seed=11, sample_drops=SampleDrops(num_gaps=2, gap_samples=32))
        )
        quiet_medium.install_fault_injector(injector)
        mac_a, mac_b = make_pair(quiet_medium)
        send_once(mac_a, b"gappy")
        scheduler.run(0.01)
        assert injector.stats.captures_sample_dropped >= 1

    def test_large_cfo_step_breaks_demodulation(self, quiet_medium, scheduler):
        injector = FaultInjector(
            FaultPlan(cfo_steps=(CfoStep(at_s=0.0, offset_hz=800e3),))
        )
        quiet_medium.install_fault_injector(injector)
        mac_a, mac_b = make_pair(quiet_medium)
        got = []
        mac_b.on_data(got.append)
        send_once(mac_a, b"detuned")
        scheduler.run(0.01)
        assert got == []
        assert injector.stats.captures_cfo_shifted >= 1

    def test_cfo_lookup_uses_latest_step(self):
        injector = FaultInjector(
            FaultPlan(
                cfo_steps=(
                    CfoStep(at_s=0.0, offset_hz=10.0),
                    CfoStep(at_s=1.0, offset_hz=20.0),
                ),
                cfo_drift_hz_per_s=1.0,
            )
        )
        assert injector._cfo_at(0.5) == pytest.approx(10.5)
        assert injector._cfo_at(2.0) == pytest.approx(22.0)
