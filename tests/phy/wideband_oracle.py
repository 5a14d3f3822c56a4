"""Reference band steps for the wideband front end (test oracles).

:class:`~repro.chips.wideband.WidebandFrontEnd` builds its band capture
in the frequency domain only.  The two front ends here replace just that
band step and inherit everything else — slot matrix, channel filter
weights and the per-channel impairment pass — so they consume identical
random streams and any difference in decisions is the band step's:

* :class:`TimeDomainFrontEnd` — the band capture as wide-rate time
  samples: :func:`compose_band` superposes every channel's baseband and
  :func:`channelize` splits the capture back with one whole-capture DFT.
  The golden wideband vector (``tests/golden/wideband.json``) is
  generated on this path.
* :class:`SequentialFrontEnd` — no band roundtrip at all: each channel's
  baseband is the (circularly filtered) slot waveform itself, so there is
  no adjacent-channel leakage.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import fft as sp_fft

from repro.chips.wideband import WidebandFrontEnd
from repro.dot15d4.channels import ZIGBEE_CHANNELS
from repro.phy.channelizer import WidebandGrid, gather_indices


def compose_band(
    channel_signals: Mapping[int, np.ndarray],
    grid: Optional[WidebandGrid] = None,
    n_out: Optional[int] = None,
) -> np.ndarray:
    """Superpose per-channel basebands into one wideband capture.

    Each channel's spectrum is placed in its window of the wideband
    raster (the windows of 5 MHz-spaced channels overlap — spectra simply
    add, which *is* the physical superposition) and one inverse transform
    yields the ``(..., oversample × n_out)`` band capture.  Inputs share
    their leading dimensions and are zero-padded to ``n_out`` (default:
    ``pad_length`` of the longest).
    """
    grid = grid or WidebandGrid()
    arrays = {c: np.asarray(s) for c, s in channel_signals.items()}
    longest = max(a.shape[-1] for a in arrays.values())
    n_out = grid.pad_length(n_out if n_out is not None else longest)
    lead = next(iter(arrays.values())).shape[:-1]
    spectrum = np.zeros(lead + (grid.oversample * n_out,), dtype=np.complex128)
    for channel, samples in arrays.items():
        padded = np.zeros(lead + (n_out,), dtype=np.complex128)
        padded[..., : samples.shape[-1]] = samples
        # Within one channel the gathered bins are unique, so in-place
        # fancy-index addition is safe; overlapping *channels* accumulate
        # across loop iterations (spectral superposition).
        spectrum[..., gather_indices(grid, channel, n_out)] += np.fft.fft(
            padded, axis=-1
        )
    return np.fft.ifft(spectrum, axis=-1) * grid.oversample


def channelize(
    wide: np.ndarray,
    grid: Optional[WidebandGrid] = None,
    channels: Optional[Sequence[int]] = None,
    spectral_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Split a band capture into ``(..., C, n_out)`` per-channel basebands.

    The exact inverse of :func:`compose_band` for one channel: one
    wideband FFT, a gather of each channel's window (times the optional
    per-bin *spectral_weights*) and one inverse FFT per channel.
    """
    grid = grid or WidebandGrid()
    channels = tuple(channels if channels is not None else ZIGBEE_CHANNELS)
    n_out = wide.shape[-1] // grid.oversample
    idx = np.stack([gather_indices(grid, c, n_out) for c in channels])
    gathered = np.fft.fft(wide, axis=-1)[..., idx]
    if spectral_weights is not None:
        gathered = gathered * spectral_weights
    return np.fft.ifft(gathered, axis=-1) / grid.oversample


class TimeDomainFrontEnd(WidebandFrontEnd):
    """Band step through wide-rate time samples: compose → channelize."""

    def _capture_band(self, base, weights, n_out):
        wide = compose_band(
            {c: base for c in self.channels}, grid=self.grid, n_out=n_out
        )
        out = channelize(
            wide,
            grid=self.grid,
            channels=self.channels,
            spectral_weights=weights,
        )
        return np.ascontiguousarray(np.swapaxes(out, 0, 1)).astype(self.dtype)


class SequentialFrontEnd(WidebandFrontEnd):
    """Band step with no band at all: every channel sees the slot alone."""

    def _capture_band(self, base, weights, n_out):
        spectra = sp_fft.fft(base, axis=-1, workers=2)
        filtered = sp_fft.ifft(spectra * weights, axis=-1, workers=2)
        return np.repeat(
            filtered[None, :, :], len(self.channels), axis=0
        ).astype(self.dtype)
