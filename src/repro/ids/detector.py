"""Baseline-learning anomaly detection over band activity.

Training phase: observe the legitimate environment and record, per band,
the activity rate and power distribution.  Detection phase: score new
observation windows against the baseline; alert when

* a band that was quiet during training becomes active (a WazaBee pivot
  waking up a Zigbee channel in a BLE-only site — or vice versa), or
* the activity rate on a known band rises above ``MIN_RATE_RATIO`` times
  its baseline, or its mean received power departs from the baseline by
  more than ``SIGMA_THRESHOLD`` standard deviations, or
* individual emissions are power outliers at a rate far above what the
  baseline spread explains (a spoofing device at a different location /
  power than the legitimate node, interleaved with its traffic).

This follows the modelling-legitimate-communications approach the paper
cites ([32], [33]); it is deliberately protocol-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.ids.monitor import BandObservation

__all__ = ["ActivityBaseline", "AnomalyAlert", "AnomalyDetector"]

#: Power deviation, in baseline standard deviations, that raises an alert.
SIGMA_THRESHOLD = 3.0
#: Activity-rate multiple of the baseline that raises a ``rate`` alert.
MIN_RATE_RATIO = 3.0
#: Share of power outliers in a window that raises ``power-outliers``.
OUTLIER_FRACTION = 0.2


@dataclass
class ActivityBaseline:
    """Per-band legitimate-traffic statistics."""

    rate_per_s: float
    power_mean_dbm: float
    power_std_dbm: float
    samples: int


@dataclass(frozen=True)
class AnomalyAlert:
    """One detected deviation."""

    band_hz: float
    kind: str  # "new-band" | "rate" | "power"
    detail: str
    severity: float


class AnomalyDetector:
    """Learns a baseline and scores observation windows against it."""

    def __init__(self):
        self.baselines: Dict[float, ActivityBaseline] = {}
        self._trained_duration = 0.0

    # -- training ---------------------------------------------------------
    def train(
        self, observations: Sequence[BandObservation], duration_s: float
    ) -> None:
        """Learn the legitimate model from a training capture."""
        if duration_s <= 0:
            raise ValueError("training duration must be positive")
        by_band: Dict[float, List[BandObservation]] = {}
        for obs in observations:
            by_band.setdefault(obs.band_hz, []).append(obs)
        self.baselines = {}
        for band, items in by_band.items():
            powers = np.array([o.power_dbm for o in items])
            self.baselines[band] = ActivityBaseline(
                rate_per_s=len(items) / duration_s,
                power_mean_dbm=float(powers.mean()),
                power_std_dbm=float(powers.std()) if len(items) > 1 else 1.0,
                samples=len(items),
            )
        self._trained_duration = duration_s

    @property
    def is_trained(self) -> bool:
        return self._trained_duration > 0.0

    # -- detection ----------------------------------------------------------
    def score(
        self, observations: Sequence[BandObservation], duration_s: float
    ) -> List[AnomalyAlert]:
        """Evaluate a detection window; returns alerts (possibly empty)."""
        if not self.is_trained:
            raise RuntimeError("detector must be trained first")
        if duration_s <= 0:
            raise ValueError("window duration must be positive")
        alerts: List[AnomalyAlert] = []
        by_band: Dict[float, List[BandObservation]] = {}
        for obs in observations:
            by_band.setdefault(obs.band_hz, []).append(obs)
        for band, items in by_band.items():
            rate = len(items) / duration_s
            baseline = self.baselines.get(band)
            if baseline is None:
                alerts.append(
                    AnomalyAlert(
                        band_hz=band,
                        kind="new-band",
                        detail=(
                            f"{len(items)} emissions on {band / 1e6:.0f} MHz, "
                            "a band with no legitimate activity"
                        ),
                        severity=float(len(items)),
                    )
                )
                continue
            if baseline.rate_per_s > 0 and rate > baseline.rate_per_s * MIN_RATE_RATIO:
                alerts.append(
                    AnomalyAlert(
                        band_hz=band,
                        kind="rate",
                        detail=(
                            f"activity rate {rate:.2f}/s vs baseline "
                            f"{baseline.rate_per_s:.2f}/s"
                        ),
                        severity=rate / baseline.rate_per_s,
                    )
                )
            powers = np.array([o.power_dbm for o in items])
            sigma = max(baseline.power_std_dbm, 0.5)
            deviation = abs(float(powers.mean()) - baseline.power_mean_dbm) / sigma
            if deviation > SIGMA_THRESHOLD:
                alerts.append(
                    AnomalyAlert(
                        band_hz=band,
                        kind="power",
                        detail=(
                            f"mean power {powers.mean():.1f} dBm vs baseline "
                            f"{baseline.power_mean_dbm:.1f}±{sigma:.1f} dBm"
                        ),
                        severity=deviation,
                    )
                )
            outliers = np.abs(powers - baseline.power_mean_dbm) > (
                SIGMA_THRESHOLD * sigma
            )
            fraction = float(outliers.mean())
            if fraction > OUTLIER_FRACTION and outliers.sum() >= 2:
                alerts.append(
                    AnomalyAlert(
                        band_hz=band,
                        kind="power-outliers",
                        detail=(
                            f"{int(outliers.sum())}/{len(items)} emissions "
                            f"beyond {SIGMA_THRESHOLD:.0f}σ of the "
                            "baseline power — a second emitter at a "
                            "different range"
                        ),
                        severity=fraction,
                    )
                )
        return alerts
