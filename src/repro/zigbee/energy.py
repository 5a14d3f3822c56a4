"""Battery model for sleepy 802.15.4 end devices.

Supports the Ghost-in-Zigbee energy-depletion attack ([30] in the paper,
listed in §VII as a residual risk even on encrypted networks): every radio
activity — transmitting a frame, waking to process a received one —
draws from a finite budget.  Numbers follow a typical 2.4 GHz SoC
(TX ≈ 90 mW, RX ≈ 60 mW at 3 V) plus a fixed wake-up cost per processed
frame; the battery capacity is configurable so simulations can exhaust it
in seconds instead of years.
"""

from __future__ import annotations

from dataclasses import dataclass, field
__all__ = ["TX_POWER_W", "RX_POWER_W", "WAKEUP_COST_J", "activity_cost", "Battery"]

TX_POWER_W = 0.090
RX_POWER_W = 0.060
#: Fixed cost of waking to process one received frame.
WAKEUP_COST_J = 0.2e-3


def activity_cost(kind: str, duration_s: float) -> float:
    """Energy (J) of one ``tx`` or ``rx`` activity lasting *duration_s*."""
    if kind == "tx":
        return TX_POWER_W * duration_s
    if kind == "rx":
        return RX_POWER_W * duration_s + WAKEUP_COST_J
    raise ValueError(f"unknown activity kind {kind!r}")


@dataclass
class Battery:
    """A finite energy budget."""

    capacity_j: float
    consumed_j: float = field(default=0.0, init=False)

    def charge_activity(self, kind: str, duration_s: float) -> None:
        """Record one radio activity (no-op once depleted)."""
        if self.depleted:
            return
        cost = activity_cost(kind, duration_s)
        self.consumed_j = min(self.capacity_j, self.consumed_j + cost)

    @property
    def remaining_j(self) -> float:
        return max(0.0, self.capacity_j - self.consumed_j)

    @property
    def depleted(self) -> bool:
        return self.consumed_j >= self.capacity_j

    @property
    def fraction_remaining(self) -> float:
        return self.remaining_j / self.capacity_j if self.capacity_j else 0.0
