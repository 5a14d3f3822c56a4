"""The first-lock sync search against its whole-row reference.

:class:`SyncSearch` correlates a row only as far as its first lock needs
and settles the RSSI gate candidate by candidate; ``sync_oracle``
correlates and gates every alignment of every row.  Both must return the
same ``(start, score, dc)`` — compared with ``==`` — for every row, search
start and threshold.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dsp.gfsk as gfsk
from repro.dsp.gfsk import (
    FIRST_LOCK_LAGS,
    FskDemodulator,
    FskModulator,
    GfskConfig,
    SyncSearch,
    _fft_pays,
    lazy_capture_power,
    sync_template,
)
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator
from repro.phy.batch import MAX_FRAME_CHIPS, SYNC_CHIPS, SYNC_START_INDEX
from repro.phy.ieee802154 import Ppdu
from tests.dsp import sync_oracle

RATE = 2e6
SYNC = np.random.default_rng(7).integers(0, 2, 64).astype(np.uint8)

#: Samples per symbol → capture lengths whose rows the size rule sends to
#: the direct correlator (2) or the FFT (8), plus a few shorter than the
#: sync template.
LENGTHS = {2: (20, 3000), 8: (4200, 7000)}


def _modem(sps):
    config = GfskConfig(samples_per_symbol=sps, modulation_index=0.5, bt=None)
    modulator = FskModulator(config, RATE, use_cache=False)
    return modulator, FskDemodulator(config, RATE)


def _frame(mod, rng, amplitude=1.0):
    """An MSK burst: random lead-in bits, the sync word, a random payload."""
    bits = np.concatenate(
        [
            rng.integers(0, 2, int(rng.integers(0, 40))),
            SYNC,
            rng.integers(0, 2, int(rng.integers(16, 200))),
        ]
    ).astype(np.uint8)
    return amplitude * mod.modulate_direct(bits).samples


def _noise(rng, size, sigma):
    return sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _stack(sps, rows, length, complex_dtype, seed, framed):
    """``(F, N)`` noise rows; each *framed* row carries a frame at a
    random offset (cut off by the capture end where it runs over)."""
    rng = np.random.default_rng(seed)
    mod, _ = _modem(sps)
    noise = float(rng.choice([0.02, 0.2, 0.6]))
    stack = _noise(rng, (rows, length), noise)
    for row in range(rows):
        if framed[row]:
            burst = _frame(mod, rng)
            offset = int(rng.integers(0, length))
            piece = burst[: length - offset]
            stack[row, offset : offset + piece.size] += piece
    return stack.astype(complex_dtype)


def _power(mode, samples):
    if mode == "lazy":
        return lazy_capture_power(samples)
    if mode == "array":
        return np.abs(samples[..., :-1]) ** 2
    if mode == "shared":  # one profile broadcast over every row
        return np.abs(samples[:1, :-1]) ** 2
    return None


@st.composite
def searches(draw):
    sps = draw(st.sampled_from(sorted(LENGTHS)))
    rows = draw(st.integers(1, 3))
    short = draw(st.booleans()) and draw(st.booleans())
    length = (
        draw(st.integers(8, SYNC.size * sps + 1))
        if short
        else draw(st.integers(*LENGTHS[sps]))
    )
    return dict(
        sps=sps,
        rows=rows,
        length=length,
        complex_dtype=draw(st.sampled_from([np.complex64, np.complex128])),
        seed=draw(st.integers(0, 2**32 - 1)),
        framed=draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
        power=draw(st.sampled_from(["lazy", "array", "shared", "none"])),
        threshold=draw(st.sampled_from([0.3, 0.45, 0.6])),
        starts=draw(
            st.lists(
                st.one_of(st.just(0), st.integers(0, length + 8)),
                min_size=1,
                max_size=4,
            )
        ),
    )


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(case=searches())
    def test_lock_matches_whole_row_oracle(self, case):
        sps = case["sps"]
        samples = _stack(
            sps,
            case["rows"],
            case["length"],
            case["complex_dtype"],
            case["seed"],
            case["framed"],
        )
        _, dem = _modem(sps)
        disc = dem.discriminate(samples)
        assert disc.dtype == np.finfo(case["complex_dtype"]).dtype
        template = sync_template(SYNC, sps, disc.dtype)
        width = template.samples.size
        if disc.shape[-1] >= width:
            # The FFT correlator pays on the long 16 Msps rows only; a
            # "short" row drawn as long as the template has a single lag.
            long_row = case["length"] >= LENGTHS[sps][0]
            assert _fft_pays(disc.shape[-1], width) == (sps == 8 and long_row)
        search = SyncSearch(disc, _power(case["power"], samples))
        reference = _power(case["power"], samples)
        # Re-arms share one search, in the drawn (not sorted) order.
        for start in case["starts"]:
            for row in range(case["rows"]):
                got = search.lock(template, case["threshold"], row, start)
                want = sync_oracle.lock(
                    disc, reference, template, case["threshold"], row, start
                )
                assert got == want

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_frame_past_the_first_window(self, dtype):
        """A lock beyond :data:`FIRST_LOCK_LAGS` comes from the
        rest-of-row correlation, at the same lag as the oracle's."""
        mod, dem = _modem(2)
        rng = np.random.default_rng(11)
        samples = _noise(rng, 3000, 0.05)
        burst = _frame(mod, rng)
        offset = FIRST_LOCK_LAGS + 700
        samples[offset : offset + burst.size] += burst[: 3000 - offset]
        samples = samples.astype(dtype)
        disc = dem.discriminate(samples)[None]
        template = sync_template(SYNC, 2, disc.dtype)
        search = SyncSearch(disc, lazy_capture_power(samples))
        lock = search.lock(template, 0.45)
        assert lock == sync_oracle.lock(
            disc, lazy_capture_power(samples), template, 0.45
        )
        assert lock[0] > FIRST_LOCK_LAGS

    def test_rearms_in_any_order(self):
        """Searches that move back before the lags already correlated,
        or jump past them, lock like fresh ones."""
        mod, dem = _modem(2)
        rng = np.random.default_rng(13)
        samples = _noise(rng, 3000, 0.05)
        burst = _frame(mod, rng)
        samples[20 : 20 + burst.size] += burst
        disc = dem.discriminate(samples)[None]
        template = sync_template(SYNC, 2, disc.dtype)
        power = lazy_capture_power(samples)
        first = sync_oracle.lock(disc, power, template, 0.45)[0]
        search = SyncSearch(disc, power)
        for start in (first + 30, 0, 2500, first + 5, disc.shape[-1] - 130):
            want = sync_oracle.lock(disc, power, template, 0.45, 0, start)
            assert search.lock(template, 0.45, 0, start) == want


class TestExactPercentileGate:
    """A weak burst that correlates ahead of the frame fails the
    quarter-of-maximum test, so the gate falls back to the percentile."""

    def _capture(self, dtype, trailing):
        mod, _ = _modem(2)
        rng = np.random.default_rng(5)
        weak = _frame(mod, rng, amplitude=0.3)
        strong = _frame(mod, rng)
        gap = np.zeros(200)
        samples = np.concatenate(
            [np.zeros(100), weak, gap, strong, np.zeros(trailing)]
        )
        samples = samples + _noise(rng, samples.size, 0.003)
        return samples.astype(dtype), 100 + weak.size + gap.size

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("trailing", [0, 40000])
    def test_weak_burst_reaches_the_percentile(self, dtype, trailing):
        """With the frame filling the capture the percentile rejects the
        burst; padded with a long weak tail it accepts it."""
        samples, strong_at = self._capture(dtype, trailing)
        _, dem = _modem(2)
        disc = dem.discriminate(samples)[None]
        template = sync_template(SYNC, 2, disc.dtype)
        search = SyncSearch(disc, lazy_capture_power(samples))
        with mock.patch.object(
            gfsk, "_percentile_floor", wraps=gfsk._percentile_floor
        ) as floor:
            lock = search.lock(template, 0.45)
        assert floor.call_count == 1
        assert lock == sync_oracle.lock(
            disc, lazy_capture_power(samples), template, 0.45
        )
        assert (lock[0] >= strong_at) == (trailing == 0)


class TestNegativeSearchStart:
    def test_find_sync_rejects_negative_start(self):
        mod, dem = _modem(8)
        bits = np.concatenate([np.zeros(20, np.uint8), SYNC])
        samples = mod.modulate_direct(bits)
        disc = dem.discriminate(samples)
        assert dem.find_sync(disc, SYNC) is not None
        for start in (-3, -100000):
            with pytest.raises(ValueError, match="search_start"):
                dem.find_sync(disc, SYNC, search_start=start)

    def test_receive_chips_rejects_negative_start(self):
        mod = OqpskModulator(samples_per_chip=2)
        dem = OqpskDemodulator(samples_per_chip=2)
        chips = Ppdu(bytes(range(12))).to_chips()
        sig = mod.modulate(chips)
        args = (sig, SYNC_CHIPS, SYNC_START_INDEX, MAX_FRAME_CHIPS)
        assert dem.receive_chips(*args) is not None
        with pytest.raises(ValueError, match="search_start"):
            dem.receive_chips(*args, search_start=-1)
