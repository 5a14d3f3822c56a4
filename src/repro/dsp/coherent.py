"""Noncoherent correlation despreader for O-QPSK — an alternative receiver.

The default 802.15.4 receiver in this project demodulates chips through the
MSK equivalence (FM discriminator + Hamming despreading), which is both how
low-IF silicon works and the mechanism WazaBee rides on.  Classic textbook
receivers instead correlate the incoming baseband against the 16 reference
*waveforms* of the spread symbols and pick the strongest magnitude —
noncoherent because the carrier phase is unknown.

This module implements that bank-of-correlators receiver.  It serves as an
ablation: both architectures accept the diverted BLE emission (the waveform
really is compatible — the attack is not an artefact of discriminator
receivers), with the correlator enjoying a small SNR advantage at the cost
of much more computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dsp.oqpsk import OqpskModulator
from repro.dsp.signal import IQSignal
from repro.phy.ieee802154 import CHIP_RATE_HZ, CHIPS_PER_SYMBOL, PN_SEQUENCES

__all__ = ["CorrelatorBank", "CorrelatorDecode", "SAMPLES_PER_CHIP"]

#: The bank's oversampling: reference waveforms and input captures alike.
SAMPLES_PER_CHIP = 8

#: Normalised correlation magnitude at which ``acquire`` locks.
ACQUIRE_THRESHOLD = 0.6


@dataclass
class CorrelatorDecode:
    """Outcome of a correlator-bank decode."""

    symbols: List[int]
    scores: List[float]
    start_sample: int


class CorrelatorBank:
    """Noncoherent matched-filter despreader.

    Reference waveforms are generated per (symbol, preceding chip) pair so
    the inter-symbol O-QPSK memory (the last chip's Q pulse spilling into
    the next symbol) is handled exactly.
    """

    def __init__(self):
        self.sample_rate = SAMPLES_PER_CHIP * CHIP_RATE_HZ
        self._modulator = OqpskModulator(SAMPLES_PER_CHIP, CHIP_RATE_HZ)
        self._references = self._build_references()
        self._symbol_samples = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP

    def _build_references(self) -> np.ndarray:
        """(2, 16, N) array: previous-chip value × symbol × samples.

        Symbols always start on an even chip index in a frame (the I
        channel), so the reference prepends *two* chips — a throwaway pad
        and the actual previous chip — keeping the symbol's first chip on
        an even index and the I/Q assignment identical to the real frame.
        """
        refs = []
        spc = SAMPLES_PER_CHIP
        for previous_chip in (0, 1):
            row = []
            for symbol in range(16):
                chips = np.concatenate(
                    [[0, previous_chip], PN_SEQUENCES[symbol]]
                ).astype(np.uint8)
                sig = self._modulator.modulate(chips)
                # Drop the two leading chip periods; keep one symbol.
                start = 2 * spc
                row.append(
                    sig.samples[start : start + CHIPS_PER_SYMBOL * spc]
                )
            refs.append(row)
        return np.asarray(refs)

    # -- timing -------------------------------------------------------------
    def acquire(self, sig: IQSignal) -> Optional[int]:
        """Find the start of the *first* preamble symbol by correlation.

        Correlates the ``0000`` reference waveform against the capture and
        locks onto the earliest alignment whose normalised magnitude clears
        :data:`ACQUIRE_THRESHOLD` (refined to the local maximum within one
        chip) — the same first-in-time semantics as the discriminator
        receiver, for the same reason: DSSS payloads can repeat the preamble
        pattern.
        """
        if sig.sample_rate != self.sample_rate:
            raise ValueError("sample rate mismatch")
        reference = self._references[0, 0]
        n = reference.size
        samples = sig.samples
        if samples.size < 2 * n:
            return None
        raw = np.abs(np.correlate(samples, reference, mode="valid"))
        energy_ref = float(np.sum(np.abs(reference) ** 2))
        power = np.abs(samples) ** 2
        cumulative = np.concatenate([[0.0], np.cumsum(power)])
        window_energy = cumulative[n:] - cumulative[:-n]
        norms = np.sqrt(energy_ref * np.maximum(window_energy, 1e-30))
        scores = raw / norms[: raw.size]
        above = np.nonzero(scores >= ACQUIRE_THRESHOLD)[0]
        if above.size == 0:
            return None
        first = int(above[0])
        window_end = min(first + 2 * SAMPLES_PER_CHIP, scores.size)
        return first + int(np.argmax(scores[first:window_end]))

    # -- decoding -----------------------------------------------------------
    def decode(
        self, sig: IQSignal, start_sample: int, max_symbols: int
    ) -> CorrelatorDecode:
        """Despread symbol-by-symbol from *start_sample*.

        Tracks the previous chip across symbols so the correct reference
        set is used each time.
        """
        samples = sig.samples
        symbols: List[int] = []
        scores: List[float] = []
        previous_chip = 0
        cursor = start_sample
        for _ in range(max_symbols):
            window = samples[cursor : cursor + self._symbol_samples]
            if window.size < self._symbol_samples:
                break
            bank = self._references[previous_chip]
            correlations = np.abs(bank @ np.conj(window))
            best = int(np.argmax(correlations))
            symbols.append(best)
            scores.append(float(correlations[best]))
            previous_chip = int(PN_SEQUENCES[best][-1])
            cursor += self._symbol_samples
        return CorrelatorDecode(
            symbols=symbols, scores=scores, start_sample=start_sample
        )
