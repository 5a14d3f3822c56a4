"""The fleet curves as each sample tallied them per PAN while the
campaign ran: the oracle for the curves
:func:`repro.experiments.fleet._merge_outcomes` computes from the
per-node battery curves.

Each sample reads every battery node's ``fraction_remaining`` in spec
order.  The tally counted, per PAN, the nodes whose battery was not
``depleted`` and summed their fractions from 0.0 in spec order; the
fleet's battery sum then added the PAN sums in spec order.
:func:`recording` records each read with the battery's live
``depleted`` flag, and :func:`per_pan_curves` tallies those reads.
"""

from typing import List, Tuple

from repro.zigbee.energy import Battery

Read = Tuple[float, bool]


def recording(monkeypatch) -> List[Read]:
    """Record every ``Battery.fraction_remaining`` read in this process
    as ``(fraction, depleted)``, for as long as *monkeypatch* holds."""
    reads: List[Read] = []
    fraction_remaining = Battery.fraction_remaining.fget

    def recorded(battery):
        fraction = fraction_remaining(battery)
        reads.append((fraction, battery.depleted))
        return fraction

    monkeypatch.setattr(Battery, "fraction_remaining", property(recorded))
    return reads


def per_pan_curves(spec, reads: List[Read]) -> Tuple[List[int], List[float]]:
    """The ``(alive_curve, battery_curve)`` a serial campaign over *spec*
    tallied from its sample *reads*."""
    sizes = [
        sum(ns.battery_j is not None for ns in pan.nodes) for pan in spec.pans
    ]
    total = sum(sizes)
    assert total and len(reads) % total == 0
    alive_curve: List[int] = []
    battery_curve: List[float] = []
    for start in range(0, len(reads), total):
        sample = iter(reads[start:start + total])
        alive, battery = 0, 0.0
        for size in sizes:
            pan_battery = 0.0
            for _ in range(size):
                fraction, depleted = next(sample)
                pan_battery += fraction
                if not depleted:
                    alive += 1
            battery += pan_battery
        alive_curve.append(alive)
        battery_curve.append(battery / total)
    return alive_curve, battery_curve
