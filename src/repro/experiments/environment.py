"""The §V experimental environment.

The paper's benchmarks place the device under test and the reference Zigbee
transceiver (AVR RZUSBStick) three metres apart, in a lab where WiFi
networks occupy channels 6 and 11 — the cause of the small per-channel dips
in Table III.  :func:`build_testbed` reproduces that environment with
seedable randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.faults import FaultInjector, FaultPlan
from repro.radio.interference import WifiInterferer
from repro.radio.medium import PropagationModel, RfMedium
from repro.radio.scheduler import Scheduler

__all__ = ["TestbedProfile", "Testbed", "build_testbed"]


@dataclass(frozen=True)
class TestbedProfile:
    """Tunable environment parameters (calibrated for Table III's shape)."""

    distance_m: float = 3.0
    tx_power_dbm: float = 0.0
    noise_floor_dbm: float = -100.0
    path_loss_exponent: float = 2.5
    shadowing_sigma_db: float = 4.0
    wifi_channels: Tuple[int, ...] = (6, 11)
    wifi_power_dbm: float = -37.0
    wifi_duty_cycle: float = 0.06
    sample_rate: float = 16e6


@dataclass
class Testbed:
    """A constructed environment, ready for devices to attach."""

    scheduler: Scheduler
    medium: RfMedium
    profile: TestbedProfile
    rng: np.random.Generator

    @property
    def attacker_position(self) -> Tuple[float, float]:
        return (0.0, 0.0)

    @property
    def reference_position(self) -> Tuple[float, float]:
        return (self.profile.distance_m, 0.0)

    def device_rng(self, stream: int) -> np.random.Generator:
        """Derive an independent per-device generator."""
        seed_seq = np.random.SeedSequence(
            entropy=int(self.rng.integers(0, 2**63)), spawn_key=(stream,)
        )
        return np.random.default_rng(seed_seq)


def build_testbed(
    profile: Optional[TestbedProfile] = None,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
) -> Testbed:
    """Stand up the paper's bench environment.

    *fault_plan* optionally degrades the bench with scripted impairments
    (see :mod:`repro.faults`) — the knob behind the ``--chaos`` CLI flag.
    """
    profile = profile or TestbedProfile()
    scheduler = Scheduler()
    rng = np.random.default_rng(seed)
    interferers = [
        WifiInterferer(
            channel=ch,
            power_dbm=profile.wifi_power_dbm,
            duty_cycle=profile.wifi_duty_cycle,
        )
        for ch in profile.wifi_channels
    ]
    medium = RfMedium(
        scheduler,
        sample_rate=profile.sample_rate,
        noise_floor_dbm=profile.noise_floor_dbm,
        propagation=PropagationModel(
            exponent=profile.path_loss_exponent,
            shadowing_sigma_db=profile.shadowing_sigma_db,
        ),
        interferers=interferers,
        seed=seed + 1,
    )
    if fault_plan is not None and not fault_plan.is_clean():
        medium.install_fault_injector(FaultInjector(fault_plan))
    return Testbed(scheduler=scheduler, medium=medium, profile=profile, rng=rng)
