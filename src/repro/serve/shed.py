"""Graceful overload degradation: the shed ladder.

Under queue pressure the service degrades in a strict order — cheap
observability first, protocol-relevant data last:

* **level 1** — shed ``trace`` records (the obs firehose);
* **level 2** — additionally shed corrupt frames (``fcs_ok`` false);
* **level 3** — additionally downsample valid frames, delivering one in
  :data:`DOWNSAMPLE_KEEP_EVERY`.

The ordering is an invariant the tests pin: a valid frame is never shed
while trace records are still being delivered.  Levels step up the
moment pressure crosses a threshold and step back down only after
pressure falls below ``threshold - SHED_HYSTERESIS``, so a ring oscillating
around a boundary does not flap announcements at subscribers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["SHED_LEVEL_NAMES", "DegradeLadder"]

#: Human-readable names, indexed by level — used in notices and metrics.
SHED_LEVEL_NAMES = ("none", "trace", "corrupt", "downsample")

#: Ring fill fractions at which the ladder sheds trace records, then
#: corrupt frames, then downsamples valid frames (levels 1, 2, 3).
SHED_THRESHOLDS = (0.50, 0.75, 0.90)
#: Subtracted from a threshold before the level steps back down past it.
SHED_HYSTERESIS = 0.15
#: At the downsample level, 1 valid frame in this many is delivered.
DOWNSAMPLE_KEEP_EVERY = 4


class DegradeLadder:
    """Pressure-driven admission control with hysteresis.

    Not thread-safe by itself; the broadcast stage is the single caller.
    """

    def __init__(self):
        self.level = 0
        self._valid_counter = 0
        # Shed tallies by class, for the ledger.
        self.shed: Dict[str, int] = {"trace": 0, "corrupt": 0, "downsample": 0}

    def update(self, pressure: float) -> Optional[int]:
        """Re-evaluate the level for *pressure*; returns it when changed."""
        new_level = self.level
        # Step up through every threshold the pressure now clears.
        while new_level < 3 and pressure >= SHED_THRESHOLDS[new_level]:
            new_level += 1
        # Step down only past the hysteresis band.
        while (
            new_level > 0
            and pressure < SHED_THRESHOLDS[new_level - 1] - SHED_HYSTERESIS
        ):
            new_level -= 1
        if new_level == self.level:
            return None
        self.level = new_level
        return new_level

    def admit(self, record: Dict[str, Any]) -> Tuple[bool, Optional[str]]:
        """Decide one record's fate at the current level.

        Returns ``(admitted, shed_class)``; *shed_class* is ``"trace"``,
        ``"corrupt"`` or ``"downsample"`` when the record was shed.
        Control records (notices, heartbeats, byes) always pass — they
        are how degradation is announced.
        """
        kind = record.get("type")
        if kind == "trace":
            if self.level >= 1:
                self.shed["trace"] += 1
                return False, "trace"
            return True, None
        if kind != "frame":
            return True, None
        if not record.get("fcs_ok", True):
            if self.level >= 2:
                self.shed["corrupt"] += 1
                return False, "corrupt"
            return True, None
        if self.level >= 3:
            self._valid_counter += 1
            if self._valid_counter % DOWNSAMPLE_KEEP_EVERY != 1:
                self.shed["downsample"] += 1
                return False, "downsample"
        return True, None
