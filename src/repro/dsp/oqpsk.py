"""O-QPSK with half-sine pulse shaping — the 802.15.4 PHY waveform.

The modulator builds the In-phase / Quadrature pulse trains exactly as
§III-C of the paper describes: even chips shape I, odd chips shape Q, each
as a half-sine of duration 2·Tc, with Q inherently offset by Tc because odd
chips start one chip period later.  The resulting complex envelope has
constant amplitude and a phase that rotates ±π/2 per chip period — i.e. an
MSK waveform.

The demodulator exploits that equivalence (as practical low-IF 802.15.4
receivers do): a quadrature discriminator recovers the per-chip rotation
bits, a correlator finds chip timing from a known chip pattern, and
:mod:`repro.dsp.msk` converts rotations back to chips.  These are the
front-end, sync and slicing stages of the one receive engine
(:mod:`repro.phy.batch`): each works on a stack of captures ``(F, N)``,
and the single-capture :meth:`OqpskDemodulator.front_end` /
:meth:`OqpskDemodulator.receive_chips` calls are its ``F = 1`` case.
DSSS despreading to symbols is deliberately *not* done here — that
belongs to the PHY layer (:mod:`repro.phy.ieee802154`), which owns the PN
table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.filters import half_sine_pulse
from repro.dsp.gfsk import (
    Capture,
    FskDemodulator,
    GfskConfig,
    SyncResult,
    SyncSearch,
    _integrate_and_dump,
    lazy_capture_power,
    sync_template,
)
from repro.dsp.msk import chips_to_transitions, transitions_to_chips
from repro.dsp.signal import IQSignal
from repro.utils.bits import as_bit_array

__all__ = [
    "OqpskModulator",
    "OqpskDemodulator",
    "ChipRows",
    "ChipSyncResult",
    "oqpsk_modems",
]


class OqpskModulator:
    """802.15.4 O-QPSK modulator with half-sine pulse shaping.

    Parameters
    ----------
    samples_per_chip:
        Oversampling factor (the symbol/figure fidelity knob).
    chip_rate:
        Chips per second; 2e6 in the 2.4 GHz ISM band.
    """

    def __init__(self, samples_per_chip: int = 8, chip_rate: float = 2e6):
        if samples_per_chip < 2:
            raise ValueError("samples_per_chip must be >= 2")
        if chip_rate <= 0:
            raise ValueError("chip_rate must be positive")
        self.samples_per_chip = samples_per_chip
        self.chip_rate = chip_rate
        self.sample_rate = chip_rate * samples_per_chip
        self._pulse = half_sine_pulse(samples_per_chip)

    def pulse_trains(self, chips) -> Tuple[np.ndarray, np.ndarray]:
        """Return the (I(t), Q(t)) pulse trains for *chips*.

        Exposed for Figure 2 (temporal waveforms) and the unit tests that
        check constant-envelope behaviour.
        """
        arr = as_bit_array(chips)
        spc = self.samples_per_chip
        pulse_len = len(self._pulse)
        nrz = arr.astype(np.float64) * 2.0 - 1.0
        length = arr.size * spc + pulse_len - 1
        i_wave = np.zeros(length)
        q_wave = np.zeros(length)
        # Same-rail chips sit 2·spc apart — exactly one pulse length — so
        # each rail is a sequence of non-overlapping pulse blocks that can
        # be written in one outer product per rail.
        even, odd = nrz[0::2], nrz[1::2]
        if even.size:
            view = i_wave[: even.size * pulse_len].reshape(even.size, pulse_len)
            np.multiply.outer(even, self._pulse, out=view)
        if odd.size:
            view = q_wave[spc : spc + odd.size * pulse_len].reshape(
                odd.size, pulse_len
            )
            np.multiply.outer(odd, self._pulse, out=view)
        return i_wave, q_wave

    def modulate(self, chips) -> IQSignal:
        """Modulate a chip sequence into a complex-baseband signal."""
        i_wave, q_wave = self.pulse_trains(chips)
        return IQSignal(i_wave + 1j * q_wave, self.sample_rate)


@dataclass
class ChipSyncResult:
    """Chip-timing acquisition outcome.

    ``chip_index`` is the absolute stream index (parity!) of the first chip
    recovered after the matched pattern; ``sync`` carries the correlation
    details.
    """

    chip_index: int
    sync: SyncResult


class ChipRows(NamedTuple):
    """Chips recovered from the capture rows that acquired sync.

    Row ``rows[i]`` locked at ``syncs[i]``; its chips are
    ``chips[i, :counts[i]]`` (``counts[i]`` is 0 when the pattern ends the
    capture).  ``chip_index`` is the absolute stream index of each row's
    first recovered chip.
    """

    rows: List[int]
    syncs: List[SyncResult]
    counts: List[int]
    chips: np.ndarray
    chip_index: int


@functools.lru_cache(maxsize=64)
def _chip_template(chips: bytes, start_index: int, spc: int, dtype: str):
    pattern = np.frombuffer(chips, dtype=np.uint8)
    transitions = chips_to_transitions(pattern, start_index=start_index)
    return sync_template(transitions, spc, dtype)


class OqpskDemodulator:
    """MSK-domain chip demodulator for O-QPSK half-sine signals.

    Internally reuses the FSK quadrature discriminator: an O-QPSK half-sine
    waveform at chip rate Rc is an MSK signal at symbol rate Rc with
    modulation index 0.5.
    """

    def __init__(self, samples_per_chip: int = 8, chip_rate: float = 2e6):
        self.samples_per_chip = samples_per_chip
        self.chip_rate = chip_rate
        self.sample_rate = chip_rate * samples_per_chip
        config = GfskConfig(
            samples_per_symbol=samples_per_chip, modulation_index=0.5, bt=None
        )
        self._fsk = FskDemodulator(config, chip_rate)

    def front_end(self, capture: Capture) -> SyncSearch:
        """Run the analogue front end once, for one capture or a stack.

        *capture* is an :class:`IQSignal` or equal-length basebands
        ``(F, N)``.  Pass the result to :meth:`receive_chips` /
        :meth:`receive_chip_rows`: every re-armed search then reuses its
        discriminator output, lazily computed power and RSSI gate.
        """
        disc = np.atleast_2d(self._fsk.discriminate(capture))
        return SyncSearch(disc, lazy_capture_power(capture))

    def receive_chip_rows(
        self,
        front: SyncSearch,
        rows: Sequence[int],
        search_starts: Sequence[int],
        sync_chips,
        sync_start_index: int,
        max_chips: int,
        threshold: float = 0.45,
    ) -> ChipRows:
        """Acquire *sync_chips* in each of *rows*; slice the chips after it.

        Each row's search resumes at its entry of *search_starts*; the
        rows lock in one :meth:`~repro.dsp.gfsk.SyncSearch.lock_rows`
        pass.  A locked row's chips are its integrate-and-dump rotation
        decisions after the pattern — less the row's DC estimate, up to
        *max_chips* and the capture end — inverted to chips by prefix XOR.
        All locked rows are sliced as one block.
        """
        sync_arr = as_bit_array(sync_chips)
        if sync_arr.size < 8:
            raise ValueError("sync pattern too short for reliable correlation")
        spc = self.samples_per_chip
        disc = front.disc
        template = _chip_template(
            sync_arr.tobytes(), sync_start_index, spc, disc.dtype.str
        )
        locks = front.lock_rows(template, threshold, rows, search_starts)
        payloads = locks.starts + template.samples.size
        counts = np.minimum(max_chips, (disc.shape[-1] - payloads) // spc)
        width = spc * counts.max(initial=0)
        block = np.zeros((len(locks.rows), width), disc.dtype)
        for out, row, payload, count in zip(block, locks.rows, payloads, counts):
            out[: count * spc] = disc[row, payload : payload + count * spc]
        soft = _integrate_and_dump(block, spc, locks.dcs[:, None])
        transitions = soft > 0
        transitions &= np.arange(soft.shape[-1]) < counts[:, None]
        deviation = self._fsk.frequency_deviation
        syncs = [
            SyncResult(int(start), float(score), float(dc) * deviation)
            for start, score, dc in zip(locks.starts, locks.scores, locks.dcs)
        ]
        # The template covers transitions into chips
        # sync_start_index+1 .. sync_start_index+len(sync)-1; the next
        # rotation period is the first recovered chip.
        first_chip_index = sync_start_index + sync_arr.size
        chips = transitions_to_chips(
            transitions.view(np.uint8),
            first_chip_index,
            previous_chip=int(sync_arr[-1]),
        )
        return ChipRows(
            locks.rows, syncs, counts.tolist(), chips, first_chip_index
        )

    def receive_chips(
        self,
        sig: IQSignal,
        sync_chips,
        sync_start_index: int,
        max_chips: int,
        threshold: float = 0.45,
        search_start: int = 0,
        front_end: Optional[SyncSearch] = None,
    ) -> Optional[Tuple[np.ndarray, ChipSyncResult]]:
        """Acquire *sync_chips* and decode the chips that follow.

        The one-row call of :meth:`receive_chip_rows`.

        Parameters
        ----------
        sig:
            The captured baseband signal (already tuned and filtered).
        sync_chips:
            A known chip pattern to correlate on (e.g. two preamble
            symbols' worth of the ``0000`` PN sequence).
        sync_start_index:
            The absolute stream index of ``sync_chips[0]`` within the frame
            — needed because the chip↔rotation mapping depends on parity.
        max_chips:
            Maximum number of chips to decode after the sync pattern.
        search_start:
            Discriminator sample index to resume the pattern search from
            (used to re-arm after a sync that produced no frame).
        front_end:
            A previously computed :meth:`front_end` result for *sig*;
            when given, the discriminator, power and RSSI gate are not
            recomputed.

        Returns
        -------
        ``None`` if the pattern is not found; otherwise ``(chips, info)``
        where *chips* are the decoded chips following the pattern (up to
        *max_chips*, limited by the capture length).
        """
        if front_end is None:
            front_end = self.front_end(sig)
        found = self.receive_chip_rows(
            front_end,
            [0],
            [search_start],
            sync_chips,
            sync_start_index,
            max_chips,
            threshold,
        )
        if not found.rows or not found.counts[0]:
            return None
        chips = found.chips[0, : found.counts[0]]
        return chips, ChipSyncResult(found.chip_index, found.syncs[0])


@functools.lru_cache(maxsize=8)
def oqpsk_modems(
    samples_per_chip: int,
) -> Tuple[OqpskModulator, OqpskDemodulator]:
    """The 2 Mchip/s modulator and demodulator at one oversampling factor,
    shared process-wide.

    Both hold only their rate's design (the half-sine pulse, the
    discriminator's :class:`GfskConfig`), so every radio at a rate uses
    the same pair.
    """
    return OqpskModulator(samples_per_chip), OqpskDemodulator(samples_per_chip)
