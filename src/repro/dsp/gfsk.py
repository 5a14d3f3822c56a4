"""(G)FSK / (G)MSK modulator and demodulator.

This is the modem inside every BLE chip model.  The modulator implements
continuous-phase 2-FSK with optional Gaussian frequency-pulse shaping:

* modulation index ``h`` — BLE allows 0.45..0.55, nominal 0.5 (which makes
  the waveform GMSK, the fact WazaBee exploits);
* BT product — BLE mandates 0.5; ``bt=None`` disables the filter and yields
  plain MSK, useful for isolating the Gaussian-approximation error in
  ablation experiments.

The demodulator is a quadrature discriminator (phase of the one-sample lag
product) followed by per-symbol integrate-and-dump, with sync-word
correlation for packet/timing acquisition and a DC-offset estimate to absorb
carrier frequency offsets.  This mirrors how low-cost BLE receivers actually
work, and — crucially for the paper — it happily demodulates any MSK-family
waveform, including 802.15.4's O-QPSK with half-sine shaping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dsp.filters import (
    _fir_lowpass,
    _spectral_weights,
    gaussian_pulse,
    rectangular_pulse,
)
from repro.dsp.signal import IQSignal
from repro.utils.bits import as_bit_array

__all__ = [
    "GfskConfig",
    "FskModulator",
    "FskDemodulator",
    "SyncResult",
    "WaveformCache",
    "waveform_cache",
    "clear_waveform_caches",
    "SyncSearch",
    "SyncTemplate",
    "sync_template",
    "lazy_capture_power",
    "CLIP_LEVEL",
    "SYNC_THRESHOLD",
    "SyncLocks",
    "FIRST_LOCK_SYMBOLS",
]


#: Symbol periods the Gaussian shaping pulse spans.
SPAN_SYMBOLS = 3


@dataclass(frozen=True)
class GfskConfig:
    """Static modem parameters.

    ``samples_per_symbol`` trades fidelity for speed; 8 keeps the Gaussian
    ISI visible while letting Table III (6400 packets) run in seconds.
    """

    samples_per_symbol: int = 8
    modulation_index: float = 0.5
    bt: Optional[float] = 0.5

    def __post_init__(self) -> None:
        if self.samples_per_symbol < 2:
            raise ValueError("samples_per_symbol must be >= 2")
        if not 0.1 <= self.modulation_index <= 2.0:
            raise ValueError("modulation_index out of sane range")
        if self.bt is not None and self.bt <= 0:
            raise ValueError("bt must be positive or None")


class WaveformCache:
    """Precomputed phase-stitched IQ segments for one (config, rate) modem.

    The MSK-family waveform is structurally repetitive: with a shaping
    pulse spanning ``S`` symbol periods, the frequency trajectory inside
    any one symbol period depends only on the ``S``-bit n-gram ending at
    that symbol.  There are therefore at most ``2**S`` distinct IQ
    segments (up to a carrier-phase rotation), which this cache
    precomputes once per :class:`GfskConfig`:

    * ``_segments[p]`` — the ``samples_per_symbol`` IQ samples of n-gram
      ``p``, synthesised from phase 0 at the segment start;
    * ``_increments[p]`` — the total phase advance across the segment.

    A frame is then synthesised by indexing segments with the sliding
    n-gram of the bit stream and rotating each one by the running phase —
    one complex exponential per *symbol* instead of per *sample* (the
    convolve → cumsum → ``exp`` chain of the direct modulator).  The
    pulse head and tail (where the n-gram is truncated by the stream
    edges) are the only parts still synthesised directly.

    Agreement with :meth:`FskModulator.modulate_direct` is within normal
    floating-point reassociation error (≤1e-9, property-tested), because
    both paths sum the very same per-sample phase contributions, merely
    in a different order.
    """

    def __init__(self, config: GfskConfig, symbol_rate: float):
        self.config = config
        self.symbol_rate = symbol_rate
        self.sample_rate = symbol_rate * config.samples_per_symbol
        sps = config.samples_per_symbol
        if config.bt is None:
            pulse = rectangular_pulse(sps)
        else:
            pulse = gaussian_pulse(config.bt, sps, SPAN_SYMBOLS)
        if len(pulse) % sps != 0:
            raise ValueError(
                "pulse length must be a whole number of symbol periods"
            )
        self._pulse = pulse
        #: Symbols of bit context one output symbol period depends on.
        self.span = len(pulse) // sps
        deviation = config.modulation_index * symbol_rate / 2.0
        self._dphi_scale = 2.0 * np.pi * deviation / self.sample_rate
        # pulse sliced per contributing-symbol offset: slice d is the part
        # of the pulse a bit emitted d symbol periods ago contributes to
        # the current period.
        slices = [pulse[d * sps : (d + 1) * sps] for d in range(self.span)]

        def block(pattern: int, active, length: int):
            """(segment, phase increment) of one symbol period.

            *active* lists the slice offsets ``d`` with a live bit; bit
            ``d`` of *pattern* is that bit's value.  Offsets outside
            *active* are stream edges and contribute nothing.
            """
            freq = np.zeros(length)
            for d in active:
                nrz = 2.0 * ((pattern >> d) & 1) - 1.0
                freq += nrz * slices[d][:length]
            cum = np.cumsum(self._dphi_scale * freq)
            inc = float(cum[-1]) if length else 0.0
            return np.exp(1j * cum), inc

        span = self.span
        # Interior periods: all `span` context bits live.
        self._segments = np.empty((1 << span, sps), dtype=np.complex128)
        self._increments = np.empty(1 << span)
        for p in range(1 << span):
            self._segments[p], self._increments[p] = block(p, range(span), sps)
        # Head period k (k < span-1) sees bits d = 0..k only; the index is
        # the low k+1 bits of the stream prefix.  Tail period n+t sees bits
        # d = t+1..span-1 (offsets into the stream suffix); the final tail
        # period is one sample short (the `full`-convolution layout).
        self._head = []
        for k in range(span - 1):
            segs = np.empty((1 << (k + 1), sps), dtype=np.complex128)
            incs = np.empty(1 << (k + 1))
            for p in range(1 << (k + 1)):
                segs[p], incs[p] = block(p, range(k + 1), sps)
            self._head.append((segs, incs))
        self._tail = []
        for t in range(span):
            length = sps if t < span - 1 else sps - 1
            active = range(t + 1, span)
            width = span - 1 - t
            segs = np.empty((1 << width, length), dtype=np.complex128)
            incs = np.empty(1 << width)
            for q in range(1 << width):
                # q packs the live bits: bit (d - t - 1) of q is offset d.
                pattern = q << (t + 1)
                segs[q], incs[q] = block(pattern, active, length)
            self._tail.append((segs, incs))

    def synthesize(self, bits) -> np.ndarray:
        """Complex-baseband samples for *bits* (cache-stitched fast path),
        starting at carrier phase 0.

        Output is sample-for-sample the modulator's ``full``-convolution
        layout: ``len(bits) * sps + pulse_len - 1`` samples.
        """
        arr = as_bit_array(bits)
        sps = self.config.samples_per_symbol
        span = self.span
        n = int(arr.size)
        if n < span:
            raise ValueError("bit sequence shorter than the pulse span")
        total_len = n * sps + len(self._pulse) - 1
        out = np.empty(total_len, dtype=np.complex128)
        # Sliding n-gram index: idx[i] covers bits i..i+span-1, i.e. the
        # interior period k = i + span - 1; most recent bit in the low bit.
        wide = arr.astype(np.int64)
        idx = wide[span - 1 :].copy()
        for d in range(1, span):
            idx += wide[span - 1 - d : n - d] << d
        num_interior = idx.size
        num_blocks = num_interior + (span - 1) + span
        # Phase increment of every period in stream order, then the
        # running phase at each period start.
        increments = np.empty(num_blocks)
        head_idx = []
        for k in range(span - 1):
            h = 0
            for d in range(k + 1):
                h |= int(arr[k - d]) << d
            head_idx.append(h)
            increments[k] = self._head[k][1][h]
        np.take(self._increments, idx, out=increments[span - 1 : span - 1 + num_interior])
        tail_idx = []
        for t in range(span):
            q = 0
            for d in range(t + 1, span):
                q |= int(arr[n + t - d]) << (d - t - 1)
            tail_idx.append(q)
            increments[num_interior + span - 1 + t] = self._tail[t][1][q]
        starts = np.empty(num_blocks)
        starts[0] = 0.0
        np.cumsum(increments[:-1], out=starts[1:])
        # Stitch: gather each period's cached segment into the output and
        # rotate it by the running phase — one complex multiply per sample,
        # one cos/sin pair per symbol (instead of per-sample exp/cumsum).
        pos = 0
        for k in range(span - 1):
            seg = self._head[k][0][head_idx[k]]
            out[pos : pos + sps] = seg * np.exp(1j * starts[k])
            pos += sps
        view = out[pos : pos + num_interior * sps].reshape(num_interior, sps)
        np.take(self._segments, idx, axis=0, out=view)
        phases = starts[span - 1 : span - 1 + num_interior]
        rotations = np.empty(num_interior, dtype=np.complex128)
        np.cos(phases, out=rotations.real)
        np.sin(phases, out=rotations.imag)
        view *= rotations[:, None]
        pos += num_interior * sps
        for t in range(span):
            seg = self._tail[t][0][tail_idx[t]]
            phase = starts[num_interior + span - 1 + t]
            out[pos : pos + seg.size] = seg * np.exp(1j * phase)
            pos += seg.size
        return out


#: Process-wide cache registry, keyed by the (frozen, hashable) modem
#: parameters.  Shared so that every layer constructing a short-lived
#: :class:`FskModulator` — chips build one per transmission — reuses the
#: same precomputed segment tables.
_WAVEFORM_CACHES: Dict[Tuple[GfskConfig, float], WaveformCache] = {}


def waveform_cache(config: GfskConfig, symbol_rate: float) -> WaveformCache:
    """The shared :class:`WaveformCache` for *(config, symbol_rate)*."""
    key = (config, symbol_rate)
    cache = _WAVEFORM_CACHES.get(key)
    if cache is None:
        cache = WaveformCache(config, symbol_rate)
        _WAVEFORM_CACHES[key] = cache
    return cache


def clear_waveform_caches() -> None:
    """Drop every process-wide DSP design (test isolation / cold-start runs).

    GFSK segment tables, sync and O-QPSK chip templates, chip parities,
    the shared O-QPSK modems, receive channel-filter taps and their
    spectral weights, and BLE whitening periods: afterwards a build pays
    for each design once, as in a fresh process.
    """
    from repro.ble.whitening import _period
    from repro.dsp.msk import _chip_parity
    from repro.dsp.oqpsk import _chip_template, oqpsk_modems

    _WAVEFORM_CACHES.clear()
    memos = (
        _template,
        _chip_template,
        _chip_parity,
        oqpsk_modems,
        _fir_lowpass,
        _spectral_weights,
        _period,
    )
    for memo in memos:
        memo.cache_clear()


class FskModulator:
    """Continuous-phase FSK modulator.

    Parameters
    ----------
    config:
        Modem parameters.
    symbol_rate:
        Symbols per second (1e6 for LE 1M, 2e6 for LE 2M).

    Synthesis goes through the process-wide shared :class:`WaveformCache`
    for *(config, symbol_rate)*, attached lazily on first :meth:`modulate`.
    """

    def __init__(self, config: GfskConfig, symbol_rate: float):
        if symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        self.config = config
        self.symbol_rate = symbol_rate
        self.sample_rate = symbol_rate * config.samples_per_symbol
        if config.bt is None:
            self._pulse = rectangular_pulse(config.samples_per_symbol)
        else:
            self._pulse = gaussian_pulse(
                config.bt, config.samples_per_symbol, SPAN_SYMBOLS
            )
        self._cache: Optional[WaveformCache] = None

    @property
    def frequency_deviation(self) -> float:
        """Peak frequency deviation Δf = h / (2·Ts) in hertz."""
        return self.config.modulation_index * self.symbol_rate / 2.0

    def frequency_waveform(self, bits) -> np.ndarray:
        """Instantaneous-frequency trajectory (Hz) for a bit sequence.

        Exposed separately so figures and tests can inspect the shaped
        frequency pulse train directly.
        """
        arr = as_bit_array(bits)
        sps = self.config.samples_per_symbol
        nrz = arr.astype(np.float64) * 2.0 - 1.0
        impulses = np.zeros(arr.size * sps)
        impulses[::sps] = nrz
        shaped = np.convolve(impulses, self._pulse, mode="full")
        return shaped * self.frequency_deviation

    def modulate(self, bits) -> IQSignal:
        """Modulate *bits* into a complex-baseband :class:`IQSignal`.

        The output includes the Gaussian filter tail, so its length slightly
        exceeds ``len(bits) * samples_per_symbol``.

        Synthesis goes through the phase-stitched :class:`WaveformCache`
        when the stream is at least one pulse span long;
        :meth:`modulate_direct` is the cache-free reference path.
        """
        cache = self.warm()
        if as_bit_array(bits).size >= cache.span:
            return IQSignal(cache.synthesize(bits), self.sample_rate)
        return self.modulate_direct(bits)

    def warm(self) -> WaveformCache:
        """Attach this modem's process-wide waveform cache and return it.

        :meth:`modulate` calls it on every frame: the first call in a
        process builds the cache (or finds the one another modulator with
        the same configuration built), later ones return the attached one.
        """
        if self._cache is None:
            self._cache = waveform_cache(self.config, self.symbol_rate)
        return self._cache

    def modulate_direct(self, bits) -> IQSignal:
        """Cache-free reference synthesis (convolve → cumsum → ``exp``),
        starting at carrier phase 0."""
        freq = self.frequency_waveform(bits)
        # Phase advance per sample: 2π f Δt, accumulated.
        dphi = 2.0 * np.pi * freq / self.sample_rate
        phase = np.cumsum(dphi)
        samples = np.exp(1j * phase)
        return IQSignal(samples, self.sample_rate)


@dataclass
class SyncResult:
    """Outcome of a sync-word search.

    ``start`` is the discriminator-domain sample index where the sync word's
    first symbol begins; ``score`` is the normalised correlation (1.0 for a
    perfect noiseless match); ``dc_offset`` is the estimated residual
    carrier-frequency offset in hertz.
    """

    start: int
    score: float
    dc_offset: float


#: Symbols the first pass of a search correlates from its start; each
#: later pass covers twice the lags of the one before.  A time span: 20 µs
#: at 2 Msymbol/s, the medium's 16 µs capture margin (where a delivered
#: frame's sync word begins) plus 4 µs, so 80 lags at 4 Msps and 320 at
#: 16 Msps.
FIRST_LOCK_SYMBOLS = 40

#: Discriminator limiter: nominal modulation sits at ±1; noise-only
#: input would otherwise swing to ±(sample_rate / 2·deviation).
CLIP_LEVEL = 1.5

#: The sync lock's normalised correlation threshold, for the BLE access
#: address and the 802.15.4 preamble alike.
SYNC_THRESHOLD = 0.45

PowerInput = Union[np.ndarray, Callable[[], np.ndarray]]
Capture = Union[IQSignal, np.ndarray]


def lazy_capture_power(capture: Capture) -> Callable[[], np.ndarray]:
    """Memoised supplier of a capture's per-sample power profile |x|².

    *capture* is an :class:`IQSignal` or samples ``(N,)`` / ``(F, N)``.
    The profile feeds the RSSI gate of :class:`SyncSearch` but is only
    needed once a row has a correlation candidate; wrapping it keeps
    candidate-less captures free of the extra pass, and every row's gate
    and every re-armed search share the single materialised array.
    """
    samples = capture.samples if isinstance(capture, IQSignal) else capture
    cache: list = []

    def supplier() -> np.ndarray:
        if not cache:
            cache.append(np.abs(samples[..., :-1]) ** 2)
        return cache[0]

    return supplier


@dataclass(frozen=True, eq=False)
class SyncTemplate:
    """An NRZ sync template plus the statics every search reuses."""

    samples: np.ndarray
    #: Mean-removed template, in the discriminator's precision.
    centered: np.ndarray
    mean: float
    #: Energy of :attr:`centered`, the correlation's normaliser.
    norm: float
    samples_per_symbol: int


@functools.lru_cache(maxsize=64)
def _template(bits: bytes, sps: int, dtype: str) -> SyncTemplate:
    nrz = np.frombuffer(bits, dtype=np.uint8).astype(np.float64) * 2.0 - 1.0
    samples = np.repeat(nrz, sps)
    mean = samples.mean()
    centered = (samples - mean).astype(dtype)
    norm = float(np.dot(centered, centered))
    if norm == 0.0:
        raise ValueError("sync word must not be constant")
    samples.setflags(write=False)  # shared by every caller
    centered.setflags(write=False)
    return SyncTemplate(samples, centered, float(mean), norm, sps)


def sync_template(
    sync_bits, samples_per_symbol: int, dtype=np.float64
) -> SyncTemplate:
    """The :class:`SyncTemplate` of *sync_bits*, built once per process."""
    bits = as_bit_array(sync_bits).tobytes()
    return _template(bits, samples_per_symbol, np.dtype(dtype).str)


class _RssiGate:
    """The RSSI gate of a power profile's rows: an alignment passes when
    its windowed mean power reaches a quarter of its row's 90th
    percentile.

    A candidate is settled by the cheapest test that decides it.  No
    window mean, as computed, exceeds its row's peak sample power by more
    than the accumulate's worst-case rounding, so reaching a quarter of
    that padded peak (:attr:`peak_level`) passes on the window sums up to
    the candidate alone.  Below it, the candidate is held to a quarter of
    the row's largest window mean (:attr:`sufficient`, from every window
    sum of the row), which the percentile never exceeds; below that, to
    the exact percentile floor.  Window sums come from an accumulate
    along the last axis, sequential per row, so a prefix of a row gives
    the same sums as the whole row.  Window means are divided out only
    where they are read: division by the positive window length is
    monotone, so the maximum of the sums divided equals the maximum mean
    exactly.
    """

    def __init__(self, power: np.ndarray, window: int):
        self.power = power
        self.window = window
        # A sequential sum of n non-negative terms is off by at most
        # γ = n·u/(1 − n·u) of the row total (≤ n × peak), so a computed
        # window sum stays below peak·(window + 2·n·γ), and the three
        # roundings to the mean's quarter add (1 + u)³ — plus, should
        # the mean underflow, the smallest normal number.  Evaluated in
        # double, with slack for its own rounding.
        n = power.shape[-1]
        info = np.finfo(power.dtype)
        u = info.eps / 2
        pad = np.inf
        if n * u < 0.5:
            growth = n * u / (1 - n * u)
            pad = (1 + 2 * n * growth / window) * (1 + u) ** 3 * (1 + 1e-9)
        peak = power.max(axis=-1).astype(np.float64)
        self.peak_level = peak * (0.25 * pad) + float(info.tiny)
        self._floors: Dict[int, np.ndarray] = {}

    @staticmethod
    def _cumulative(power: np.ndarray) -> np.ndarray:
        """Each row's running sums, from the empty sum."""
        shape = power.shape[:-1] + (power.shape[-1] + 1,)
        cumulative = np.empty(shape, power.dtype)
        cumulative[..., 0] = 0
        np.add.accumulate(power, axis=-1, out=cumulative[..., 1:])
        return cumulative

    @functools.cached_property
    def sums(self) -> np.ndarray:
        """Every window sum of every row."""
        cumulative = self._cumulative(self.power)
        return cumulative[..., self.window :] - cumulative[..., : -self.window]

    @functools.cached_property
    def sufficient(self) -> np.ndarray:
        """A quarter of each row's largest window mean."""
        return 0.25 * (self.sums.max(axis=-1) / self.window)

    def windowed(self, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The window means of *rows* at *starts*, from each row's sums
        up to the furthest start."""
        stops = starts + self.window
        cumulative = self._cumulative(self.power[rows, : stops.max()])
        index = np.arange(len(rows))
        sums = cumulative[index, stops] - cumulative[index, starts]
        return sums / self.window

    def floor(self, row: int) -> np.ndarray:
        """A quarter of *row*'s 90th percentile, computed once per row."""
        floor = self._floors.get(row)
        if floor is None:
            windowed = self.sums[row] / self.window
            floor = self._floors[row] = _percentile_floor(windowed)
        return floor


def _percentile_floor(windowed: np.ndarray) -> np.ndarray:
    """A quarter of the 90th percentile of one row's windowed power."""
    return 0.25 * np.percentile(windowed, 90, keepdims=True)


class SyncLocks(NamedTuple):
    """The rows of a :meth:`SyncSearch.lock_rows` call that locked.

    Row ``rows[i]`` locked at discriminator sample ``starts[i]`` with
    normalised correlation ``scores[i]``; ``dcs[i]`` is the mean of its
    locked window minus the template mean (the static carrier offset in
    units of the nominal deviation).  Scores and DC estimates are in the
    discriminator's precision.
    """

    rows: List[int]
    starts: np.ndarray
    scores: np.ndarray
    dcs: np.ndarray


class SyncSearch:
    """Sync-word acquisition over the rows of a discriminator stack.

    *disc* is ``(F, M)``; *power* (per-sample |x|² aligned with it, or a
    zero-argument callable returning it) enables an RSSI gate that rejects
    alignments whose windowed power falls well below the strongest part
    of their row, so clipped noise in a pre-frame margin cannot trigger a
    false sync.  A one-row profile is shared by every row of the stack.

    :meth:`lock_rows` locks any set of rows in one pass over the stack:
    each row is correlated (``np.correlate``) only over
    :data:`FIRST_LOCK_SYMBOLS` from its search start, and only the rows
    with no gated candidate there over the next lags, twice as many in
    each further pass, up to the row end.  The gate is built once per template width and shared by every
    re-armed search, after a lock that yielded no frame.
    """

    def __init__(self, disc: np.ndarray, power: Optional[PowerInput] = None):
        self.disc = disc
        self.power = power
        self._gates: Dict[int, Optional[_RssiGate]] = {}

    def _gate(self, width: int) -> Optional[_RssiGate]:
        """The RSSI gate for a *width*-sample window; ``None`` without a
        power profile covering the rows."""
        if width not in self._gates:
            power = self.power
            if callable(power):
                power = self.power = power()
            gate = None
            n = self.disc.shape[-1]
            if power is not None and power.shape[-1] >= n:
                gate = _RssiGate(np.atleast_2d(power)[:, :n], width)
            self._gates[width] = gate
        return self._gates[width]

    def _scan(
        self,
        template: SyncTemplate,
        threshold: float,
        rows: Sequence[int],
        starts: Sequence[int],
        stops: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's first lag in ``[start, stop)`` that clears
        *threshold* and the RSSI gate, refined to the correlation maximum
        within two symbols: ``(found, best, score)`` per row.

        The rows' correlations over their lags, plus the refinement's
        reach past *stop*, fill one block padded with ``-inf``.
        """
        disc = self.disc
        width = template.samples.size
        lags = disc.shape[-1] - width + 1
        reach = 2 * template.samples_per_symbol
        spans = [stop - start for start, stop in zip(starts, stops)]
        span = max(spans)
        block = np.empty((len(rows), span + reach - 1), disc.dtype)
        for out, row, start, stop in zip(block, rows, starts, stops):
            end = min(stop + reach - 1, lags)
            segment = disc[row, start : end + width - 1]
            out[: end - start] = np.correlate(segment, template.centered, "valid")
            out[end - start :] = -np.inf
        np.divide(block, template.norm, out=block)
        hits = block[:, :span] >= threshold
        for hit, row_span in zip(hits, spans):
            if row_span < span:
                hit[row_span:] = False
        first = hits.argmax(axis=-1)
        index = np.arange(len(rows))
        found = hits[index, first]
        starts = np.asarray(starts, dtype=np.intp)
        gate = self._gate(width) if found.any() else None
        if gate is not None:
            shared = len(gate.power) == 1
            gate_rows = np.zeros_like(index) if shared else np.asarray(rows)
            windowed = gate.windowed(gate_rows, starts + first)
            weak = found & (windowed < gate.peak_level[gate_rows])
            if weak.any():
                weak &= windowed < gate.sufficient[gate_rows]
            # A first hit below the quarter-of-maximum level: every hit
            # of the row is held to the exact percentile floor instead.
            for i in weak.nonzero()[0]:
                candidates = starts[i] + hits[i].nonzero()[0]
                row = gate_rows[i]
                levels = gate.sums[row, candidates] / gate.window
                passed = levels >= gate.floor(row)
                j = passed.argmax()
                found[i] = passed[j]
                first[i] = candidates[j] - starts[i]
        refined = block[index[:, None], first[:, None] + np.arange(reach)]
        peak = refined.argmax(axis=-1)
        return found, starts + first + peak, refined[index, peak]

    def lock_rows(
        self,
        template: SyncTemplate,
        threshold: float,
        rows: Sequence[int],
        search_starts: Sequence[int],
    ) -> SyncLocks:
        """Lock each of the distinct *rows* onto its first candidate at or
        after its entry of *search_starts*.

        Locks onto the **first** alignment that clears the threshold — the
        way hardware sync detectors fire, and essential here because DSSS
        payloads can repeat the preamble pattern later in the frame — and
        refines it to the local correlation maximum within two symbols.
        A row locks the same alone as with any other rows.  A negative
        search start raises :class:`ValueError`.
        """
        if min(search_starts, default=0) < 0:
            raise ValueError(
                f"search_start must be >= 0, got {min(search_starts)}"
            )
        disc = self.disc
        width = template.samples.size
        lags = disc.shape[-1] - width + 1
        span = FIRST_LOCK_SYMBOLS * template.samples_per_symbol
        pending = [
            (row, start) for row, start in zip(rows, search_starts) if start < lags
        ]
        locks: Dict[int, Tuple[int, float]] = {}
        while pending:
            order = [row for row, _ in pending]
            starts = [start for _, start in pending]
            stops = [min(start + span, lags) for start in starts]
            found, best, score = self._scan(
                template, threshold, order, starts, stops
            )
            for i in found.nonzero()[0]:
                locks[order[i]] = (best[i], score[i])
            pending = [
                (row, stop)
                for row, stop, hit in zip(order, stops, found)
                if not hit and stop < lags
            ]
            span *= 2
        locked = [row for row in rows if row in locks]
        starts = np.array([locks[row][0] for row in locked], dtype=np.intp)
        scores = np.array([locks[row][1] for row in locked], dtype=disc.dtype)
        windows = np.empty((len(locked), width), disc.dtype)
        for out, row, start in zip(windows, locked, starts):
            out[...] = disc[row, start : start + width]
        # ``window.mean()`` without its Python wrapper, in its arithmetic:
        # each row's pairwise sum divided by an intp count, cast back.
        totals = np.add.reduce(windows, axis=-1)
        means = (totals / np.intp(width)).astype(disc.dtype)
        return SyncLocks(locked, starts, scores, means - template.mean)

    def lock(
        self, template: SyncTemplate, threshold: float
    ) -> Optional[Tuple[int, float, float]]:
        """The one-row call of :meth:`lock_rows`: ``(start, score, dc)``
        of row 0's first candidate, or ``None``."""
        locks = self.lock_rows(template, threshold, [0], [0])
        if not locks.rows:
            return None
        return int(locks.starts[0]), float(locks.scores[0]), float(locks.dcs[0])


def _pairwise_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape *terms* in NumPy's pairwise order.

    The order in which ``np.add.reduce`` sums one contiguous run of
    values: sequentially below 8 terms; up to 128 terms, eight running
    partial sums folded as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus a
    sequential remainder; beyond that, the two halves (the first a
    multiple of 8 long) summed separately.  Summing the terms of a
    reduction in the same order gives bit-identical results.  The terms
    must be arrays the caller owns: the sums accumulate into them.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    if n <= 128:
        partial = terms[:8]
        blocked = n - n % 8
        for i in range(8, blocked, 8):
            for j in range(8):
                partial[j] += terms[i + j]
        total = (partial[0] + partial[1]) + (partial[2] + partial[3])
        total += (partial[4] + partial[5]) + (partial[6] + partial[7])
        for term in terms[blocked:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _integrate_and_dump(
    window: np.ndarray, sps: int, dc: Union[float, np.ndarray] = 0.0
) -> np.ndarray:
    """The sum of each run of *sps* samples along the last axis of
    *window*, less *dc* (a scalar, or a column of one value per row).

    Bit-identical, row by row, to ``(row - dc).reshape(-1, sps).sum(axis=1)``
    — the same additions in the same order, starting from the reduction's
    +0.0 identity — but as *sps* strided adds over whole rows rather than
    one tiny reduction per symbol.
    """
    total = _pairwise_sum([window[..., phase::sps] - dc for phase in range(sps)])
    total += 0.0
    return total


class FskDemodulator:
    """Quadrature-discriminator FSK demodulator with sync acquisition."""

    def __init__(self, config: GfskConfig, symbol_rate: float):
        if symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        self.config = config
        self.symbol_rate = symbol_rate
        self.sample_rate = symbol_rate * config.samples_per_symbol
        self.frequency_deviation = config.modulation_index * symbol_rate / 2.0

    # -- front end -------------------------------------------------------
    def discriminate(self, capture: Capture) -> np.ndarray:
        """Instantaneous frequency normalised to ±1 at nominal deviation.

        The phase of the one-sample lag product, clipped at
        :data:`CLIP_LEVEL` like a hardware limiter — essential so that
        noise-only stretches of a capture cannot produce arbitrarily large
        correlation values during sync search.  *capture* is an
        :class:`IQSignal` at this demodulator's rate, or samples ``(N,)`` /
        ``(F, N)``; the output is one sample shorter along the last axis
        and keeps the input's precision.
        """
        if isinstance(capture, IQSignal):
            if capture.sample_rate != self.sample_rate:
                raise ValueError(
                    f"sample rate mismatch: signal {capture.sample_rate}, "
                    f"demodulator {self.sample_rate}"
                )
            capture = capture.samples
        # An explicit ufunc call, not the ``*`` operator: from 256 KiB on,
        # NumPy evaluates ``a * np.conj(b)`` in place on the conj temporary
        # (temporary elision), which swaps the complex multiply's operands
        # and changes the last bit of some products.  A row's output would
        # then depend on how many rows share its stack.
        lag = np.multiply(capture[..., 1:], np.conj(capture[..., :-1]))
        # np.angle, then the scaling and limiter of the reference
        # expression ``clip(angle · fs / 2π / deviation)`` in its order,
        # in place on the one real output array.
        freq = np.arctan2(lag.imag, lag.real)
        freq *= self.sample_rate
        freq /= 2.0 * np.pi
        freq /= self.frequency_deviation
        return np.clip(freq, -CLIP_LEVEL, CLIP_LEVEL, out=freq)

    # -- timing acquisition -------------------------------------------------
    def find_sync(
        self,
        disc: np.ndarray,
        sync_bits,
        threshold: float = SYNC_THRESHOLD,
        power: Optional[PowerInput] = None,
    ) -> Optional[SyncResult]:
        """Search the discriminator output for a sync word.

        The one-row :class:`SyncSearch`: the first alignment of an NRZ
        template of *sync_bits* whose normalised score clears *threshold*
        (and the RSSI gate, when *power* is given), refined within two
        symbols.
        """
        template = sync_template(
            sync_bits, self.config.samples_per_symbol, disc.dtype
        )
        lock = SyncSearch(disc[None], power).lock(template, threshold)
        if lock is None:
            return None
        start, score, dc = lock
        return SyncResult(start, score, dc * self.frequency_deviation)

    # -- decisions --------------------------------------------------------
    def soft_symbols(
        self, disc: np.ndarray, start: int, num_symbols: int, dc: float = 0.0
    ) -> np.ndarray:
        """Integrate-and-dump per-symbol soft values (positive ⇒ bit 1).

        ``dc`` is the normalised DC offset (from :class:`SyncResult`,
        ``dc_offset / frequency_deviation``) subtracted before integration.
        """
        sps = self.config.samples_per_symbol
        end = start + num_symbols * sps
        if start < 0 or end > disc.size:
            raise ValueError(
                f"requested symbols [{start}:{end}] exceed discriminator "
                f"length {disc.size}"
            )
        return _integrate_and_dump(disc[start:end], sps, dc)

    def decide_bits(
        self, disc: np.ndarray, start: int, num_bits: int, dc: float = 0.0
    ) -> np.ndarray:
        """Hard bit decisions for *num_bits* symbols starting at *start*."""
        soft = self.soft_symbols(disc, start, num_bits, dc=dc)
        return (soft > 0).astype(np.uint8)

    def available_bits(self, disc: np.ndarray, start: int) -> int:
        """How many whole symbols remain after *start*."""
        if start >= disc.size:
            return 0
        return (disc.size - start) // self.config.samples_per_symbol

    # -- one-shot convenience ------------------------------------------------
    def demodulate_packet(
        self,
        sig: IQSignal,
        sync_bits,
        num_payload_bits: int,
    ) -> Optional[Tuple[np.ndarray, SyncResult]]:
        """Find *sync_bits* (at :data:`SYNC_THRESHOLD`) and decode the
        following *num_payload_bits*.

        Returns ``None`` when the sync word is absent or the capture is too
        short; otherwise ``(payload_bits, sync_result)``.  If fewer than
        *num_payload_bits* symbols remain after the sync word, all available
        whole symbols are returned.
        """
        disc = self.discriminate(sig)
        sync = self.find_sync(disc, sync_bits, power=lazy_capture_power(sig))
        if sync is None:
            return None
        sps = self.config.samples_per_symbol
        payload_start = sync.start + as_bit_array(sync_bits).size * sps
        dc_norm = sync.dc_offset / self.frequency_deviation
        count = min(num_payload_bits, self.available_bits(disc, payload_start))
        if count <= 0:
            return None
        bits = self.decide_bits(disc, payload_start, count, dc=dc_norm)
        return bits, sync
