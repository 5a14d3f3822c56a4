"""Interference sources sharing the 2.4 GHz ISM band.

The paper's testbed ran next to live WiFi networks on channels 6 and 11,
which shows up in Table III as a few lost/corrupted frames on the Zigbee
channels whose frequencies those WiFi channels cover (16–18 and 21–23).
:class:`WifiInterferer` reproduces that mechanism: a bursty wideband noise
source with an OFDM-like flat spectral mask, contributing power into a
receiver's passband proportionally to the spectral overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.signal import IQSignal

__all__ = ["WifiInterferer", "wifi_channel_frequency_hz", "WIFI_BANDWIDTH_HZ"]

WIFI_BANDWIDTH_HZ = 22e6
#: Width of the flat part of the spectral mask; power density outside it
#: (but inside the 22 MHz occupied band) is 12 dB down, roughly the
#: 802.11 OFDM mask shoulder.
INNER_BANDWIDTH_HZ = 16.6e6
_MHZ = 1e6


def wifi_channel_frequency_hz(channel: int) -> float:
    """Centre frequency of an IEEE 802.11 (2.4 GHz) channel, 1–13."""
    if not 1 <= channel <= 13:
        raise ValueError(f"invalid WiFi channel {channel}")
    return (2412 + 5 * (channel - 1)) * _MHZ


@dataclass
class WifiInterferer:
    """A bursty wideband interferer.

    Parameters
    ----------
    channel:
        WiFi channel number (1–13).
    power_dbm:
        Burst power *as received* across the full WiFi bandwidth (the
        experiments place interferers by received level rather than
        modelling the AP's position).
    duty_cycle:
        Probability that any given capture window collides with a burst.
    """

    channel: int
    power_dbm: float = -55.0
    duty_cycle: float = 0.1

    def __post_init__(self) -> None:
        self.center_hz = wifi_channel_frequency_hz(self.channel)
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in [0, 1]")

    def power_density_in_band(self, rf_center_hz: float, bandwidth_hz: float) -> float:
        """Linear burst power falling inside a receiver band.

        Integrates the two-level spectral mask over the receiver passband.
        Returns 0 when the bands do not overlap.
        """
        lo = rf_center_hz - bandwidth_hz / 2.0
        hi = rf_center_hz + bandwidth_hz / 2.0
        inner_lo = self.center_hz - INNER_BANDWIDTH_HZ / 2.0
        inner_hi = self.center_hz + INNER_BANDWIDTH_HZ / 2.0
        outer_lo = self.center_hz - WIFI_BANDWIDTH_HZ / 2.0
        outer_hi = self.center_hz + WIFI_BANDWIDTH_HZ / 2.0
        inner_overlap = max(0.0, min(hi, inner_hi) - max(lo, inner_lo))
        outer_overlap = (
            max(0.0, min(hi, outer_hi) - max(lo, outer_lo)) - inner_overlap
        )
        total_power = 10.0 ** (self.power_dbm / 10.0)
        shoulder_gain = 10.0 ** (-12.0 / 10.0)
        mask_area = INNER_BANDWIDTH_HZ + shoulder_gain * (
            WIFI_BANDWIDTH_HZ - INNER_BANDWIDTH_HZ
        )
        density = total_power / mask_area
        return density * (inner_overlap + shoulder_gain * outer_overlap)

    def contribution(
        self,
        rx_center_hz: float,
        rx_bandwidth_hz: float,
        num_samples: int,
        sample_rate: float,
        rng: np.random.Generator,
    ) -> IQSignal:
        """Interference samples for one capture window (possibly silence).

        A burst, when present, covers a random contiguous portion of the
        window (at least half of it) — real 802.11 frames are hundreds of
        microseconds, comparable to the Zigbee frames they collide with.
        """
        samples = np.zeros(num_samples, dtype=np.complex128)
        in_band = self.power_density_in_band(rx_center_hz, rx_bandwidth_hz)
        if in_band > 0.0 and rng.random() < self.duty_cycle:
            burst_len = int(num_samples * rng.uniform(0.5, 1.0))
            start = rng.integers(0, max(1, num_samples - burst_len + 1))
            scale = np.sqrt(in_band / 2.0)
            burst = scale * (
                rng.standard_normal(burst_len)
                + 1j * rng.standard_normal(burst_len)
            )
            samples[start : start + burst_len] = burst
        return IQSignal(samples, sample_rate, rx_center_hz)
