"""Whole-row reference for the first-lock sync search.

Production (:class:`repro.dsp.gfsk.SyncSearch`) correlates a row only as
far as its first lock needs and settles the RSSI gate per candidate.  This
is the definition it is tested against: correlate every row in full with
the correlator the size rule picks, gate every alignment against a quarter
of its row's 90th percentile of windowed power, and lock onto the first
alignment that passes both.
"""

from typing import Optional, Tuple

import numpy as np

from repro.dsp.gfsk import (
    SyncTemplate,
    _correlate_direct,
    _correlate_fft,
    _fft_pays,
)


def correlate_valid(haystack: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Valid-mode correlation of every row, FFT where the size rule says."""
    if _fft_pays(haystack.shape[-1], template.size):
        return _correlate_fft(haystack, template)
    return _correlate_direct(haystack, template)


def rssi_gate(power: np.ndarray, window: int) -> np.ndarray:
    """Alignments whose windowed mean power reaches a quarter of their
    row's 90th percentile."""
    zeros = np.zeros(power.shape[:-1] + (1,), dtype=power.dtype)
    cumulative = np.concatenate([zeros, np.cumsum(power, axis=-1)], axis=-1)
    windowed = (cumulative[..., window:] - cumulative[..., :-window]) / window
    gate = 0.25 * np.percentile(windowed, 90, axis=-1, keepdims=True)
    return windowed >= gate


def candidates(
    disc: np.ndarray, power, template: SyncTemplate, threshold: float
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """``(corr, valid)`` over the whole stack: the normalised correlation
    and the alignments that clear *threshold* and the RSSI gate.
    ``(None, None)`` when the rows are shorter than the template."""
    width = template.samples.size
    n = disc.shape[-1]
    if n < width:
        return None, None
    corr = correlate_valid(disc, template.centered) / template.norm
    valid = corr >= threshold
    if power is not None and valid.any():
        power = np.atleast_2d(power() if callable(power) else power)
        if power.shape[-1] >= n:
            valid &= rssi_gate(power[..., :n], width)
    return corr, valid


def lock(
    disc: np.ndarray,
    power,
    template: SyncTemplate,
    threshold: float,
    row: int = 0,
    search_start: int = 0,
) -> Optional[Tuple[int, float, float]]:
    """``(start, score, dc)`` of *row*'s first candidate at or after
    *search_start*, refined to the correlation maximum within two symbols."""
    corr, valid = candidates(disc, power, template, threshold)
    if valid is None or search_start >= valid.shape[-1]:
        return None
    first = search_start + int(valid[row, search_start:].argmax())
    if not valid[row, first]:
        return None
    span = 2 * template.samples_per_symbol
    best = first + int(corr[row, first : first + span].argmax())
    window = disc[row, best : best + template.samples.size]
    return best, float(corr[row, best]), float(window.mean() - template.mean)
