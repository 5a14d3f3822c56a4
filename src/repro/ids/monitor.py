"""Passive multi-band spectrum monitoring.

One cheap receiver front-end per monitored band; whenever energy lands in a
band, the sentinel records a :class:`BandObservation` (time, band, power,
duration).  No demodulation, no protocol knowledge — the §VII premise is
that defenders may not even run the protocols they need to watch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.dsp.signal import IQSignal
from repro.radio.medium import RfMedium, Transmission
from repro.radio.transceiver import Transceiver

__all__ = ["BandObservation", "SpectrumSentinel"]

#: Bands quieter than this are ignored (thermal floor margin).
DETECTION_THRESHOLD_DBM = -85.0
#: Each probe's receive bandwidth: one 2 MHz BLE/Zigbee channel.
PROBE_BANDWIDTH_HZ = 2e6


@dataclass(frozen=True)
class BandObservation:
    """Energy detected in one monitored band."""

    time: float
    band_hz: float
    power_dbm: float
    duration_s: float


class SpectrumSentinel:
    """A bank of energy detectors across configurable RF bands.

    Parameters
    ----------
    medium:
        The RF medium to listen on.
    bands_hz:
        Band centre frequencies to monitor (e.g. all Zigbee channels plus
        all BLE channels).
    position:
        Where the probe antenna sits.
    """

    def __init__(
        self,
        medium: RfMedium,
        bands_hz: Sequence[float],
        position: Tuple[float, float] = (0.0, 0.0),
        name: str = "ids-sentinel",
    ):
        self.medium = medium
        self.observations: List[BandObservation] = []
        self._probes: List[Transceiver] = []
        for i, band in enumerate(bands_hz):
            probe = Transceiver(
                medium,
                name=f"{name}-{band / 1e6:.0f}MHz",
                position=position,
                bandwidth_hz=PROBE_BANDWIDTH_HZ,
            )
            probe.tune(band)
            self._probes.append(probe)

    def start(self) -> None:
        for probe in self._probes:
            probe.start_rx(self._make_handler(probe))

    def stop(self) -> None:
        for probe in self._probes:
            probe.stop_rx()

    def _make_handler(self, probe: Transceiver):
        def handler(capture: IQSignal, _tx: Transmission) -> None:
            power = capture.power()
            if power <= 0.0:
                return
            power_dbm = 10.0 * np.log10(power)
            if power_dbm < DETECTION_THRESHOLD_DBM:
                return
            self.observations.append(
                BandObservation(
                    time=self.medium.scheduler.now,
                    band_hz=probe.tuned_hz,
                    power_dbm=float(power_dbm),
                    duration_s=capture.duration,
                )
            )

        return handler

    # -- summaries -----------------------------------------------------------
    def observations_since(self, time: float) -> List[BandObservation]:
        return [obs for obs in self.observations if obs.time >= time]

    def clear(self) -> None:
        self.observations = []
