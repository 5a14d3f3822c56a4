"""The direct-form receive channel filter, the spectral filter's oracle.

:func:`repro.dsp.filters.apply_filter` computes the FIR as a spectral
product.  This is the formulation it replaced: a 'full' convolution per
row, trimmed by the group delay.  The two agree to round-off (not
bitwise), except that both give exactly ``+0.0`` wherever the input
window is all zero.
"""

import numpy as np


def apply_filter(taps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Direct-form group-delay-compensated FIR along the last axis."""
    samples = np.asarray(samples)
    if samples.ndim > 1:
        return np.stack([apply_filter(taps, row) for row in samples])
    delay = (len(taps) - 1) // 2
    out = np.convolve(samples, taps, mode="full")
    return out[delay : delay + samples.size]


#: Per-row agreement bound, fixed before the spectral filter was written:
#: max |spectral − direct| ≤ RELATIVE_TOLERANCE × max |direct| per row.
RELATIVE_TOLERANCE = 1e-12


def row_errors(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Each row's max |got − want| relative to the row's peak."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    peak = np.abs(want).max(axis=-1)
    return np.abs(got - want).max(axis=-1) / np.where(peak > 0, peak, 1.0)
