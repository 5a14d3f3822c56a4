"""Wideband raster geometry for the 16-channel receiver.

One 2.4 GHz capture spanning the whole Zigbee band (channels 11–26,
2405–2480 MHz) holds sixteen per-channel complex basebands.  The
wideband front end (:mod:`repro.chips.wideband`) never materialises that
capture in time: it works on spectra, scattering each channel's baseband
spectrum into its window of the wideband DFT raster and gathering every
window back.  Gathering ``n`` contiguous bins of an ``L·n``-point DFT is
algebraically identical to the ``L``-branch polyphase decomposition of a
Dirichlet prototype filter followed by the output DFT, so the gather is
a critically-stacked polyphase channelizer evaluated in the frequency
domain.

This module holds what that spectral path needs:

* :class:`WidebandGrid` — the raster geometry;
* :func:`gather_indices` — a channel's window of the wideband DFT;
* :func:`fir_spectral_weights` — a linear-phase FIR as zero-phase
  per-bin weights, folded into the gather (re-exported from
  :mod:`repro.dsp.filters`, where the narrowband receivers' channel
  filter uses the same weights).

Design constraints that make the gather exact:

* Zigbee channels sit on a 5 MHz raster; with a per-channel output rate
  of 16 Msps, an output block length that is a multiple of 16 puts every
  channel's centre frequency exactly on a DFT bin (5e6·m·n/16e6 is an
  integer iff 16 | n), so channel extraction is a pure index gather with
  no fractional mixing.
* The wideband rate is ``oversample × channel_rate``; the default
  oversample of 8 (128 Msps) keeps the outermost channel (26, +40 MHz
  from the band centre) and its full ±8 MHz alias window away from the
  band edge.

The time-domain reference — wide-rate samples composed from per-channel
basebands and split back by one whole-capture DFT — lives in the test
suite as the front end's oracle (``tests/phy/wideband_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dot15d4.channels import ZIGBEE_CHANNELS, channel_frequency_hz
from repro.dsp.filters import fir_spectral_weights

__all__ = [
    "WIDEBAND_CENTER_HZ",
    "WidebandGrid",
    "gather_indices",
    "fir_spectral_weights",
]

#: Band centre: Zigbee channel 18 (2440 MHz).  Channel offsets then span
#: −35 MHz (ch 11) … +40 MHz (ch 26), all multiples of the 5 MHz raster.
WIDEBAND_CENTER_HZ = 2440e6


@dataclass(frozen=True)
class WidebandGrid:
    """Geometry of the wideband raster.

    ``channel_rate`` is each extracted baseband's sample rate (matches
    the narrowband pipeline, 16 Msps); the wideband capture runs at
    ``oversample × channel_rate``, centred on :data:`WIDEBAND_CENTER_HZ`,
    and covers every Zigbee channel.
    """

    channel_rate: float = 16e6
    oversample: int = 8

    def __post_init__(self) -> None:
        if self.oversample < 2:
            raise ValueError("oversample must be >= 2")
        nyquist = self.oversample * self.channel_rate / 2.0
        for channel in ZIGBEE_CHANNELS:
            edge = abs(self.channel_offset_hz(channel)) + self.channel_rate / 2.0
            if edge > nyquist:
                raise ValueError(
                    f"channel {channel} window exceeds the wideband Nyquist "
                    f"range (need oversample > {2 * edge / self.channel_rate:.1f})"
                )

    def channel_offset_hz(self, channel: int) -> float:
        return channel_frequency_hz(channel) - WIDEBAND_CENTER_HZ

    @property
    def block_multiple(self) -> int:
        """Per-channel block lengths must be multiples of this.

        A 5 MHz channel offset lands exactly on a DFT bin iff
        ``offset · n / channel_rate`` is an integer for every raster
        step, i.e. iff ``n`` is a multiple of
        ``channel_rate / gcd(channel_rate, 5 MHz)`` — 16 at the default
        16 Msps, 8 at 8 Msps.
        """
        rate = int(round(self.channel_rate))
        return rate // int(np.gcd(rate, 5_000_000))

    def pad_length(self, n: int) -> int:
        """Smallest valid per-channel block length ≥ *n*.

        Output lengths must be multiples of :attr:`block_multiple` so
        every 5 MHz channel offset lands exactly on a DFT bin (see
        module docstring).
        """
        m = self.block_multiple
        return max(m, -(-n // m) * m)

    def bin_shift(self, channel: int, n_out: int) -> int:
        """DFT bin index of *channel*'s centre in an ``oversample·n_out`` FFT."""
        shift = self.channel_offset_hz(channel) * n_out / self.channel_rate
        shift_int = int(round(shift))
        if abs(shift - shift_int) > 1e-6:
            raise ValueError(
                f"block length {n_out} does not place channel {channel} on a "
                f"bin (use pad_length)"
            )
        return shift_int


def gather_indices(
    grid: WidebandGrid, channel: int, n_out: int
) -> np.ndarray:
    """Wideband-FFT bin indices forming *channel*'s baseband spectrum.

    The index vector mapping an ``oversample·n_out``-point wideband FFT
    to *channel*'s ``n_out``-point baseband spectrum (FFT bin order).
    The wideband front end uses it to scatter/gather without
    materialising wide-rate time samples.
    """
    n_wide = grid.oversample * n_out
    shift = grid.bin_shift(channel, n_out)
    # Output bin k carries frequency k for k < n/2 and k − n above — the
    # standard FFT ordering — each offset by the channel's centre bin.
    offsets = np.arange(n_out)
    offsets = np.where(offsets < n_out // 2, offsets, offsets - n_out)
    return (shift + offsets) % n_wide
