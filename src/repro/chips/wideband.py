"""Wideband band-capture front end (all 16 Zigbee channels at once).

The narrowband testbed tunes one 2 MHz receiver per channel and runs a
Table III cell per tuning.  This front end models the wideband variant:
every frame slot's waveform goes on the air on all channels
simultaneously, is superposed into one band capture spanning
2405–2480 MHz, and is split back into per-channel basebands.

The band capture lives purely in the frequency domain: the slot
waveform's spectrum is scattered into each channel's window of the
wideband raster (:func:`~repro.phy.channelizer.gather_indices`) and
gathered back per channel, with the channel-selection FIR folded into
the extraction as zero-phase spectral weights
(:func:`~repro.phy.channelizer.fir_spectral_weights`).  No wide-rate
time samples are ever materialised, which is what makes a full Table III
sweep a handful of tensor ops.  Two references check this path from the
test suite (``tests/phy/wideband_oracle.py``): the time-domain band
roundtrip (compose wide-rate samples, split them with one whole-capture
DFT) and a per-channel path with no band roundtrip at all.  Both
override only the band step, so they draw identical random numbers.

Physics parity with the narrowband medium, by construction:

* per-(channel, slot) carrier-frequency error drawn from the
  transmitter's crystal tolerance, applied at baseband (an in-window
  signal is unaffected by whether the rotation happens before or after
  channel extraction);
* amplitude from the same log-distance path model
  (:class:`~repro.radio.medium.PropagationModel`) with per-capture
  log-normal shadowing;
* thermal noise (scaled to the per-channel rate) and WiFi interferer
  bursts added per channel after channel selection — the standard
  equivalent-baseband simplification;
* the transceiver's 49-tap 1.3 MHz channel-selection FIR, applied as a
  circular convolution whose wrap lands in the slot's zero margins.

Every random draw comes from a dedicated per-channel generator in a
documented order (per chunk: CFO batch, shadowing batch, per-slot WiFi,
noise real batch, noise imaginary batch), so any band step consumes
identical streams and outcomes are directly comparable.  The
random plan therefore depends on the chunking the caller uses —
``repro.experiments.table3.CHUNK_SLOTS`` is part of the
reproducibility contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.dot15d4.channels import ZIGBEE_CHANNELS, channel_frequency_hz
from repro.dsp.filters import fir_lowpass
from repro.experiments import environment as testbed
from repro.obs import metrics as _current_metrics
from repro.phy.channelizer import (
    WidebandGrid,
    fir_spectral_weights,
    gather_indices,
)
from repro.radio.interference import WifiInterferer
from repro.radio.medium import PropagationModel

__all__ = ["WidebandFrontEnd", "SWEEP_GRID"]

#: FFT worker threads for the batched transforms (bounded: the tensors
#: are small enough that more threads just add scheduling overhead).
_FFT_WORKERS = 2

#: The sweep-tuned raster: 4 Msps per channel (2 samples/chip — still
#: 2× the 2 MHz chip rate) with a 96 Msps notional wideband rate.  The
#: spectral path never materialises wide-rate samples, so the large
#: oversample costs nothing.  Differential tests against the 16 Msps
#: narrowband pipeline use the default grid instead.
SWEEP_GRID = WidebandGrid(channel_rate=4e6, oversample=24)


class WidebandFrontEnd:
    """Compose per-channel transmissions into one band capture and split it.

    The channel is the §V bench's (:mod:`repro.experiments.environment`:
    distance, noise floor, WiFi interferers).

    Parameters
    ----------
    tx_cfo_std_hz:
        Transmitter crystal tolerance — the RZUSBStick's
        (:data:`repro.chips.rzusbstick.CFO_STD_HZ`) for the reception
        primitive, the diverted chip's for the transmission primitive.
    grid:
        Wideband raster; defaults to the full 16-channel grid at the
        narrowband-compatible 16 Msps.
    channels:
        Zigbee channels simulated (default: the grid's channels).
    seed:
        Root seed; each channel gets an independent spawned generator.
    dtype:
        ``np.complex128`` (default) or ``np.complex64`` — the sweep runs
        single precision; differential tests against the float64
        narrowband pipeline keep double.
    """

    #: Zero margin placed before and after each slot's waveform: the
    #: wideband stand-in for the medium's capture margin, and the home of
    #: the circular filter wrap.
    margin_samples = 128

    def __init__(
        self,
        tx_cfo_std_hz: float,
        grid: Optional[WidebandGrid] = None,
        channels: Optional[Sequence[int]] = None,
        seed: int = 0,
        dtype: np.dtype = np.complex128,
    ):
        self.grid = grid or WidebandGrid()
        self.channels: Tuple[int, ...] = tuple(
            channels if channels is not None else ZIGBEE_CHANNELS
        )
        self.tx_cfo_std_hz = tx_cfo_std_hz
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.complex64, np.complex128):
            raise ValueError("dtype must be complex64 or complex128")
        self._taps = fir_lowpass(
            cutoff_hz=2e6 * 0.65,
            sample_rate=self.grid.channel_rate,
            num_taps=49,
        )
        # Deterministic base gain (distance term); shadowing is drawn
        # per (channel, slot) from the channel's own stream below.
        self._base_gain_db = testbed.TX_POWER_DBM + PropagationModel(
            exponent=testbed.PATH_LOSS_EXPONENT
        ).path_gain_db((0.0, 0.0), (testbed.DISTANCE_M, 0.0))
        self._interferers = [
            WifiInterferer(
                channel=ch,
                power_dbm=testbed.WIFI_POWER_DBM,
                duty_cycle=testbed.WIFI_DUTY_CYCLE,
            )
            for ch in testbed.WIFI_CHANNELS
        ]
        self._rngs: Dict[int, np.random.Generator] = {
            c: np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(c,))
            )
            for c in self.channels
        }
        self._overlap_cache: Dict[int, list] = {}
        self.metrics = _current_metrics()

    @property
    def samples_per_chip(self) -> int:
        spc = self.grid.channel_rate / 2e6
        if abs(spc - round(spc)) > 1e-9:
            raise ValueError(
                "channel rate must be an integer multiple of the 2 MHz "
                "chip rate"
            )
        return int(round(spc))

    # -- capture ------------------------------------------------------------
    def capture_slots(self, signals: List[np.ndarray]) -> np.ndarray:
        """Simulate *signals* (one per frame slot) on every channel at once.

        Returns ``(slots, channels, n_out)`` basebands at
        :attr:`WidebandGrid.channel_rate`, channel-filtered and impaired,
        ready for the batched decoder.
        """
        if not signals:
            raise ValueError("capture_slots needs at least one slot waveform")
        num_slots = len(signals)
        margin = self.margin_samples
        longest = max(s.shape[-1] for s in signals)
        n_out = self.grid.pad_length(longest + 2 * margin)
        base = np.zeros((num_slots, n_out), dtype=self.dtype)
        for i, sig in enumerate(signals):
            base[i, margin : margin + sig.shape[-1]] = sig
        weights = fir_spectral_weights(
            self._taps, n_out, np.finfo(self.dtype).dtype
        )
        # Internal layout is channel-major (C, S, n) so the per-channel
        # impairment pass works on contiguous blocks.
        out = self._capture_band(base, weights, n_out)
        self._impair_rows(out, n_out)
        self.metrics.counter("wideband.captures").inc()
        self.metrics.counter("wideband.slots").inc(num_slots)
        return np.swapaxes(out, 0, 1)

    def _overlaps(self, n_out: int) -> list:
        """Cached spectral-window intersections between channel pairs.

        ``(j, k, b_idx, c_idx)`` means channel index ``j``'s gathered
        baseband picks up channel ``k``'s transmission at its own bins
        ``b_idx`` ← ``k``'s baseband bins ``c_idx`` — the
        adjacent-channel leakage a wide-array scatter/gather would
        produce.  Channels whose windows don't overlap on the raster
        (window width ≤ channel spacing) yield no pairs.
        """
        pairs = self._overlap_cache.get(n_out)
        if pairs is None:
            indices = [
                gather_indices(self.grid, c, n_out) for c in self.channels
            ]
            pairs = []
            for j, idx_j in enumerate(indices):
                for k, idx_k in enumerate(indices):
                    if j == k:
                        continue
                    _, b_idx, c_idx = np.intersect1d(
                        idx_j, idx_k, return_indices=True
                    )
                    if b_idx.size:
                        pairs.append((j, k, b_idx, c_idx))
            self._overlap_cache[n_out] = pairs
        return pairs

    def _capture_band(
        self, base: np.ndarray, weights: np.ndarray, n_out: int
    ) -> np.ndarray:
        """The band step: compose and split without wide-rate samples.

        Every channel transmits the same slot spectrum, so scattering
        all channels into the wideband raster and gathering each window
        back reduces to: each channel's baseband spectrum = the slot
        spectrum + the overlapping slices of its raster neighbours'
        spectra (adjacent-channel leakage).  Identical sums to the
        wide-array formulation, with no ``oversample × n_out`` arrays.
        Returns channel-major ``(C, S, n_out)`` filtered basebands.
        """
        spectra = sp_fft.fft(base, axis=-1, workers=_FFT_WORKERS)
        gathered = np.repeat(
            spectra[None, :, :], len(self.channels), axis=0
        )
        for j, _k, b_idx, c_idx in self._overlaps(n_out):
            gathered[j][:, b_idx] += spectra[:, c_idx]
        gathered *= weights
        return sp_fft.ifft(gathered, axis=-1, workers=_FFT_WORKERS).astype(
            self.dtype
        )

    def _impair_rows(self, out: np.ndarray, n_out: int) -> None:
        """Apply per-(channel, slot) CFO, path gain, WiFi and noise in place.

        One pass per channel from that channel's dedicated stream, in a
        fixed draw order independent of the band step.  *out* is
        channel-major ``(C, S, n_out)``.
        """
        num_slots = out.shape[1]
        rate = self.grid.channel_rate
        real_dtype = np.float32 if self.dtype == np.complex64 else np.float64
        # Per-channel noise power: the bench's floor is defined over its
        # (narrowband) capture bandwidth; scale to this grid's rate.
        noise_power = 10.0 ** (testbed.NOISE_FLOOR_DBM / 10.0) * (
            rate / testbed.SAMPLE_RATE
        )
        noise_scale = np.sqrt(noise_power / 2.0)
        # CFO rotation via block factoring: e^{iω(kB+j)/fs} =
        # (e^{iωB/fs})^k · e^{iωj/fs}, so the transcendental work is one
        # block of exps plus integer powers of the block step — the rest
        # is a complex outer product.
        block = 512
        n_blocks = -(-n_out // block)
        t_block = np.arange(block) / rate
        powers = np.arange(n_blocks)
        for j, channel in enumerate(self.channels):
            rng = self._rngs[channel]
            cfos = rng.normal(0.0, self.tx_cfo_std_hz, num_slots)
            gains_db = np.full(num_slots, self._base_gain_db) - rng.normal(
                0.0, testbed.SHADOWING_SIGMA_DB, num_slots
            )
            amplitudes = 10.0 ** (gains_db / 20.0)
            omega = 2.0 * np.pi * cfos
            base_rot = np.exp(1j * omega[:, None] * t_block[None, :])
            step = np.exp(1j * omega * (block / rate))
            factors = amplitudes[:, None] * step[:, None] ** powers[None, :]
            rotation = (
                factors[:, :, None].astype(self.dtype)
                * base_rot[:, None, :].astype(self.dtype)
            ).reshape(num_slots, n_blocks * block)[:, :n_out]
            rows = out[j]
            rows *= rotation
            fc = channel_frequency_hz(channel)
            for i in range(num_slots):
                for interferer in self._interferers:
                    burst = interferer.contribution(
                        rx_center_hz=fc,
                        rx_bandwidth_hz=2e6,
                        num_samples=n_out,
                        sample_rate=rate,
                        rng=rng,
                    )
                    if burst.samples.any():
                        rows[i] += burst.samples.astype(self.dtype)
            noise = rng.standard_normal(
                (num_slots, n_out), dtype=real_dtype
            ) * real_dtype(noise_scale)
            rows += noise
            rng.standard_normal((num_slots, n_out), dtype=real_dtype, out=noise)
            rows += 1j * (real_dtype(noise_scale) * noise)
