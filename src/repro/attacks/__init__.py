"""End-to-end attack scenarios (§VI).

* :mod:`repro.attacks.scenario_a` — injecting 802.15.4 frames from an
  unrooted Android smartphone via extended advertising: forge the
  advertising data so that, after the controller's mandatory whitening, the
  on-air bits carry an entire 802.15.4 frame; the CSA#2 channel lottery
  decides when the AUX_ADV_IND lands on the BLE channel overlapping the
  target Zigbee channel.
* :mod:`repro.attacks.scenario_b` — the four-stage attack from a
  compromised BLE tracker (nRF51822, ESB 2 Mbit/s fallback): active scan →
  eavesdropping → remote AT command injection (channel-change denial of
  service) → fake data injection.
"""

from repro.attacks.energy_depletion import FleetDepletionAttack
from repro.attacks.scenario_a import SmartphoneInjectionAttack, forge_advertising_data
from repro.attacks.scenario_b import AttackPhase, TrackerAttack

__all__ = [
    "forge_advertising_data",
    "SmartphoneInjectionAttack",
    "TrackerAttack",
    "AttackPhase",
    "FleetDepletionAttack",
]
