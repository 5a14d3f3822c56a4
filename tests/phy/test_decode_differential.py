"""The stacked 802.15.4 decode against the sequential one, row by row.

``decode_chip_frames`` decodes a stack of filtered captures and re-arms
the rows whose lock yields no frame together; ``tests/phy/decode_oracle``
keeps the loop that decoded one capture at a time.  Every row of a stack
must decode to exactly the frame the oracle finds in it alone — payload,
FCS verdict, lock, symbols, distances and LLRs — whatever the other rows
hold: clean frames, noise, weak bursts, frames cut off by the capture
end, and decoys whose first lock yields no frame.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot15d4.fcs import append_fcs
from repro.dsp.filters import apply_filter, fir_lowpass
from repro.dsp.oqpsk import _chip_template, oqpsk_modems
from repro.phy.batch import (
    SYNC_CHIPS,
    SYNC_START_INDEX,
    SYNC_THRESHOLD,
    decode_chip_frames,
)
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, PN_SEQUENCES, Ppdu
from tests.phy.decode_oracle import decode_oracle

KINDS = ("frame", "noise", "weak", "truncated", "rearm")

#: Chips between a decoy preamble and the frame after it: more than the
#: 16 symbols the frame tail searches for an SFD after a lock.
DECOY_GAP_CHIPS = 20 * CHIPS_PER_SYMBOL


def _frame(spc: int, rng: np.random.Generator) -> np.ndarray:
    payload = rng.integers(0, 256, int(rng.integers(1, 13)), dtype=np.uint8)
    chips = Ppdu(append_fcs(bytes(payload))).to_chips()
    return oqpsk_modems(spc)[0].modulate(chips).samples


def _decoy(spc: int, rng: np.random.Generator) -> np.ndarray:
    """Three preamble symbols and random chips: a lock with no SFD."""
    noise = rng.integers(0, 2, DECOY_GAP_CHIPS, dtype=np.uint8)
    chips = np.concatenate([PN_SEQUENCES[0]] * 3 + [noise])
    return oqpsk_modems(spc)[0].modulate(chips).samples


def _row(kind: str, spc: int, n: int, rng: np.random.Generator) -> np.ndarray:
    row = np.zeros(n, dtype=np.complex128)
    sigma = rng.uniform(0.002, 0.03)
    if kind != "noise":
        burst = _frame(spc, rng)
        if kind == "rearm":
            burst = np.concatenate([_decoy(spc, rng), burst])
        if kind == "truncated":
            # The capture ends somewhere after the sync pattern starts.
            keep = int(rng.integers(2 * CHIPS_PER_SYMBOL * spc, burst.size))
            offset = n - keep
        else:
            offset = int(rng.integers(0, n - burst.size + 1))
        amplitude = sigma * rng.uniform(0.5, 3.0) if kind == "weak" else 0.1
        burst = burst[: n - offset] * amplitude
        cfo = rng.uniform(-40e3, 40e3)
        t = np.arange(burst.size) / (spc * 2e6)
        row[offset : offset + burst.size] = burst * np.exp(2j * np.pi * cfo * t)
    return row + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _stack(kinds, spc, dtype, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Long enough for a decoy, its gap and the longest frame, with room
    # to slide them.
    longest = 3 * CHIPS_PER_SYMBOL + DECOY_GAP_CHIPS + 40 * CHIPS_PER_SYMBOL
    n = (longest + 4 * CHIPS_PER_SYMBOL) * spc
    raw = np.stack([_row(kind, spc, n, rng) for kind in kinds])
    taps = fir_lowpass(1.3e6, spc * 2e6, 49)
    return apply_filter(taps, raw, None if dtype == np.complex128 else dtype)


@st.composite
def stacks(draw):
    spc = draw(st.sampled_from([2, 8]))
    dtype = draw(st.sampled_from([np.complex64, np.complex128]))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    return spc, dtype, kinds, seed


@settings(max_examples=40, deadline=None)
@given(stacks())
def test_stack_rows_decode_as_the_sequential_oracle(case):
    spc, dtype, kinds, seed = case
    stack = _stack(kinds, spc, dtype, seed)
    assert stack.dtype == dtype
    for i, frame in enumerate(decode_chip_frames(stack, spc)):
        assert frame == decode_oracle(stack[i], spc), (kinds[i], i)


def test_decoy_rows_are_re_armed():
    """The ``rearm`` rows exercise the re-arm: their first lock is on the
    decoy, and the frame both decoders find locks after it."""
    spc = 2
    rearmed = 0
    for seed in range(6):
        stack = _stack(["rearm"] * 3, spc, np.complex64, seed)
        front = oqpsk_modems(spc)[1].front_end(stack)
        template = _chip_template(
            SYNC_CHIPS.tobytes(), SYNC_START_INDEX, spc, front.disc.dtype.str
        )
        for i, frame in enumerate(decode_chip_frames(stack, spc)):
            assert frame == decode_oracle(stack[i], spc)
            first = front.lock_rows(template, SYNC_THRESHOLD, [i], [0]).starts
            rearmed += frame is not None and first[0] < frame.sync_start
    assert rearmed >= 9
