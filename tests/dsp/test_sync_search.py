"""The first-lock sync search against its whole-row reference.

:class:`SyncSearch` locks any set of a stack's rows in one pass that
correlates each row only as far as its first lock needs and settles the
RSSI gate candidate by candidate; ``sync_oracle`` correlates and gates
every alignment of one row.  Both must return the same ``(start, score,
dc)`` — compared with ``==`` — for every row, search start, threshold
and precision, whether the row is locked alone (:meth:`SyncSearch.lock`)
or with others (:meth:`SyncSearch.lock_rows`).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dsp.gfsk as gfsk
from repro.dsp.gfsk import (
    FIRST_LOCK_SYMBOLS,
    FskDemodulator,
    FskModulator,
    GfskConfig,
    SyncSearch,
    lazy_capture_power,
    sync_template,
)
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator
from repro.phy.batch import MAX_FRAME_CHIPS, SYNC_CHIPS, SYNC_START_INDEX
from repro.phy.ieee802154 import Ppdu
from tests.dsp import sync_oracle


def _lock(search, template, threshold, row, start):
    """``(start, score, dc)`` of *row*'s first lock at or after *start*,
    or ``None``: :meth:`SyncSearch.lock` of any row and start."""
    locks = search.lock_rows(template, threshold, [row], [start])
    if not locks.rows:
        return None
    return int(locks.starts[0]), float(locks.scores[0]), float(locks.dcs[0])

RATE = 2e6
SYNC = np.random.default_rng(7).integers(0, 2, 64).astype(np.uint8)

#: Samples per symbol → capture lengths (4 and 16 Msps 802.15.4-sized
#: rows); a few drawn cases are shorter than the sync template instead.
LENGTHS = {2: (20, 3000), 8: (4200, 7000)}


def _modem(sps):
    config = GfskConfig(samples_per_symbol=sps, modulation_index=0.5, bt=None)
    modulator = FskModulator(config, RATE)
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


def _mixed_stack(sps, kinds, length, complex_dtype, seed):
    """``(F, N)`` noise rows holding, per *kinds*: nothing, a frame at a
    random offset, a frame and a short loud spike — its candidates fall
    below the padded peak level and are held to the quarter-of-maximum
    level — or a weak burst ahead of a frame — a candidate that fails the
    quarter-of-maximum gate and takes the percentile path."""
    rng = np.random.default_rng(seed)
    mod, _ = _modem(sps)
    stack = _noise(rng, (len(kinds), length), float(rng.choice([0.003, 0.02, 0.2])))
    for row, kind in enumerate(kinds):
        if kind == "noise":
            continue
        burst = _frame(mod, rng)
        if kind == "weak":
            gap = np.zeros(int(rng.integers(0, 300)))
            burst = np.concatenate([_frame(mod, rng, amplitude=0.3), gap, burst])
        offset = int(rng.integers(0, length))
        piece = burst[: length - offset]
        stack[row, offset : offset + piece.size] += piece
        if kind == "spiked":
            spike = int(rng.integers(0, length - 3))
            stack[row, spike : spike + 3] += 5.0
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


@st.composite
def stack_searches(draw):
    sps = draw(st.sampled_from(sorted(LENGTHS)))
    rows = draw(st.integers(1, 6))
    short = draw(st.booleans()) and draw(st.booleans())
    length = (
        draw(st.integers(8, SYNC.size * sps + 1))
        if short
        else draw(st.integers(*LENGTHS[sps]))
    )
    start = st.one_of(st.just(0), st.integers(0, length + 8))
    order = draw(st.permutations(range(rows)))
    return dict(
        sps=sps,
        length=length,
        complex_dtype=draw(st.sampled_from([np.complex64, np.complex128])),
        seed=draw(st.integers(0, 2**32 - 1)),
        kinds=draw(
            st.lists(
                st.sampled_from(["noise", "frame", "spiked", "weak"]),
                min_size=rows,
                max_size=rows,
            )
        ),
        power=draw(st.sampled_from(["lazy", "array", "shared", "none"])),
        threshold=draw(st.sampled_from([0.3, 0.45, 0.6])),
        # Re-arm rounds: each locks a subset of the rows, in any order,
        # each row from its own search start.
        rounds=draw(
            st.lists(
                st.tuples(
                    st.integers(1, rows).map(lambda k: order[:k]),
                    st.lists(start, min_size=rows, max_size=rows),
                ),
                min_size=1,
                max_size=3,
            )
        ),
    )


class TestStackLock:
    @settings(max_examples=80, deadline=None)
    @given(case=stack_searches())
    def test_stack_lock_matches_oracle_row_by_row(self, case):
        sps = case["sps"]
        samples = _mixed_stack(
            sps,
            case["kinds"],
            case["length"],
            case["complex_dtype"],
            case["seed"],
        )
        _, dem = _modem(sps)
        disc = dem.discriminate(samples)
        template = sync_template(SYNC, sps, disc.dtype)
        threshold = case["threshold"]
        search = SyncSearch(disc, _power(case["power"], samples))
        reference = _power(case["power"], samples)
        for rows, starts in case["rounds"]:
            starts = [starts[row] for row in rows]
            locks = search.lock_rows(template, threshold, rows, starts)
            assert locks.scores.dtype == locks.dcs.dtype == disc.dtype
            got = {
                row: (int(start), float(score), float(dc))
                for row, start, score, dc in zip(*locks)
            }
            assert list(got) == [row for row in rows if row in got]
            for row, start in zip(rows, starts):
                want = sync_oracle.lock(
                    disc, reference, template, threshold, row, start
                )
                assert got.get(row) == want

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_percentile_floor_only_for_weak_first_hits(self, dtype):
        """Of a frame row, a weak-burst row and a noise row locked
        together, only the weak-burst row computes its percentile."""
        mod, dem = _modem(2)
        rng = np.random.default_rng(5)
        weak = np.concatenate(
            [np.zeros(100), _frame(mod, rng, 0.3), np.zeros(200), _frame(mod, rng)]
        )
        strong = _frame(mod, rng)
        samples = _noise(rng, (3, weak.size), 0.003)
        samples[0, 50 : 50 + strong.size] += strong[: weak.size - 50]
        samples[1] += weak
        samples = samples.astype(dtype)
        disc = dem.discriminate(samples)
        template = sync_template(SYNC, 2, disc.dtype)
        power = lazy_capture_power(samples)
        search = SyncSearch(disc, power)
        with mock.patch.object(
            gfsk, "_percentile_floor", wraps=gfsk._percentile_floor
        ) as floor:
            locks = search.lock_rows(template, 0.45, [0, 1, 2], [0, 0, 0])
        assert floor.call_count == 1
        assert locks.rows == [0, 1]
        for i, row in enumerate(locks.rows):
            want = sync_oracle.lock(disc, power, template, 0.45, row)
            assert want == (
                int(locks.starts[i]), float(locks.scores[i]), float(locks.dcs[i])
            )

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_gate_tiers(self, dtype):
        """A frame row passes on its running sums up to the candidate; a
        row with a loud spike is held to its largest window mean, without
        a percentile; both lock as the oracle does."""
        mod, dem = _modem(2)
        rng = np.random.default_rng(9)
        burst = _frame(mod, rng)
        samples = _noise(rng, (2, burst.size + 400), 0.003)
        samples[:, 50 : 50 + burst.size] += burst
        samples = samples.astype(dtype)
        disc = dem.discriminate(samples)
        template = sync_template(SYNC, 2, disc.dtype)
        spiked = samples.copy()
        spiked[:, -100:-97] += 5.0
        for capture, whole_rows in [(samples, False), (spiked, True)]:
            disc = dem.discriminate(capture)
            power = lazy_capture_power(capture)
            search = SyncSearch(disc, power)
            with mock.patch.object(
                gfsk, "_percentile_floor", wraps=gfsk._percentile_floor
            ) as floor:
                locks = search.lock_rows(template, 0.45, [0, 1], [0, 0])
            assert floor.call_count == 0
            gate = search._gate(template.samples.size)
            assert ("sums" in vars(gate)) == whole_rows
            assert locks.rows == [0, 1]
            for i, row in enumerate(locks.rows):
                want = sync_oracle.lock(disc, power, template, 0.45, row)
                assert want == (
                    int(locks.starts[i]),
                    float(locks.scores[i]),
                    float(locks.dcs[i]),
                )

    def test_negative_start_rejected(self):
        _, dem = _modem(2)
        disc = dem.discriminate(_mixed_stack(2, ["frame"] * 2, 600, complex, 1))
        search = SyncSearch(disc)
        template = sync_template(SYNC, 2, disc.dtype)
        with pytest.raises(ValueError, match="search_start"):
            search.lock_rows(template, 0.45, [0, 1], [0, -1])


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
        search = SyncSearch(disc, _power(case["power"], samples))
        reference = _power(case["power"], samples)
        # Re-arms share one search, in the drawn (not sorted) order.
        for start in case["starts"]:
            for row in range(case["rows"]):
                got = _lock(search, template, case["threshold"], row, start)
                want = sync_oracle.lock(
                    disc, reference, template, case["threshold"], row, start
                )
                assert got == want

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_frame_past_the_first_window(self, dtype):
        """A lock beyond the :data:`FIRST_LOCK_SYMBOLS` window comes from
        a later, wider pass (here the fourth), at the same lag as the
        oracle's."""
        mod, dem = _modem(2)
        rng = np.random.default_rng(11)
        samples = _noise(rng, 3000, 0.05)
        burst = _frame(mod, rng)
        first_window = FIRST_LOCK_SYMBOLS * 2
        offset = first_window + 700
        samples[offset : offset + burst.size] += burst[: 3000 - offset]
        samples = samples.astype(dtype)
        disc = dem.discriminate(samples)[None]
        template = sync_template(SYNC, 2, disc.dtype)
        search = SyncSearch(disc, lazy_capture_power(samples))
        lock = search.lock(template, 0.45)
        assert lock == sync_oracle.lock(
            disc, lazy_capture_power(samples), template, 0.45
        )
        assert lock[0] > first_window

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
            assert _lock(search, template, 0.45, 0, start) == want


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
    def test_lock_rows_rejects_negative_start(self):
        mod, dem = _modem(8)
        bits = np.concatenate([np.zeros(20, np.uint8), SYNC])
        disc = dem.discriminate(mod.modulate_direct(bits))[None]
        template = sync_template(SYNC, 8, disc.dtype)
        search = SyncSearch(disc)
        assert search.lock(template, 0.45) is not None
        for start in (-3, -100000):
            with pytest.raises(ValueError, match="search_start"):
                search.lock_rows(template, 0.45, [0], [start])

    def test_receive_chip_rows_rejects_negative_start(self):
        mod = OqpskModulator(samples_per_chip=2)
        dem = OqpskDemodulator(samples_per_chip=2)
        sig = mod.modulate(Ppdu(bytes(range(12))).to_chips())
        args = (SYNC_CHIPS, SYNC_START_INDEX, MAX_FRAME_CHIPS)
        assert dem.receive_chips(sig, *args) is not None
        with pytest.raises(ValueError, match="search_start"):
            dem.receive_chip_rows(dem.front_end(sig), [0], [-1], *args)
