"""Differential harness pinning the receive engine to independent truths.

Three equivalences keep the 16-channel pipeline honest:

* **Channelizer transparency** — a frame decoded from a channelized band
  capture must match the same frame decoded straight from its
  single-channel baseband (payload, FCS verdict, sync offsets), across
  random payloads, channels, CFO and noise.
* **Engine/oracle identity** — :func:`repro.phy.batch.decode_chip_frames`
  must make exactly the decisions of :func:`oracle_decode`, a sequential
  receiver rebuilt here from reference pieces only (the signal's
  instantaneous frequency, ``np.correlate``, a cumulative-power gate,
  ``transitions_to_chips`` and the scalar ``despread_symbol`` oracle),
  at the fleet's 4 Msps (direct correlator) and at 16 Msps (FFT
  correlator).  A stacked decode must equal row-by-row decodes bit for
  bit.
* **Subsystem exactness** — the time-domain oracle's compose →
  channelize is an identity to float round-off.

Everything here runs in float64: the golden and differential contract is
pinned at full precision; the sweep's single-precision raster is covered
by ``tests/experiments/test_table3_wideband.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot15d4.fcs import append_fcs, verify_fcs
from repro.dsp.msk import chips_to_transitions, transitions_to_chips
from repro.dsp.oqpsk import OqpskModulator
from repro.dsp.signal import IQSignal
from repro.phy.batch import (
    MAX_FRAME_CHIPS,
    RESYNC_ATTEMPTS,
    SYNC_CHIPS,
    SYNC_START_INDEX,
    decode_chip_frames,
)
from repro.phy.channelizer import WidebandGrid
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, Ppdu

from tests.dsp.impairment_helpers import instantaneous_frequency
from tests.phy.despread_oracle import despread_symbol
from tests.phy.wideband_oracle import channelize, compose_band

SPC = 8
CHIP_RATE = 2e6
SAMPLE_RATE = SPC * CHIP_RATE


def make_capture(payload, cfo_hz, noise_scale, seed, margin=256, spc=SPC):
    """One impaired O-QPSK capture of *payload* (+FCS) at *spc*."""
    psdu = append_fcs(bytes(payload))
    waveform = OqpskModulator(samples_per_chip=spc).modulate(
        Ppdu(psdu).to_chips()
    )
    rng = np.random.default_rng(seed)
    n = waveform.samples.size + 2 * margin
    x = np.zeros(n, dtype=np.complex128)
    x[margin : margin + waveform.samples.size] = waveform.samples
    t = np.arange(n) / (spc * CHIP_RATE)
    x *= 0.1 * np.exp(2j * np.pi * cfo_hz * t)
    x += noise_scale * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    return psdu, x


def oracle_decode(x, spc=SPC):
    """A sequential 802.15.4 receiver built only from reference pieces."""
    disc = instantaneous_frequency(IQSignal(x, spc * CHIP_RATE))
    disc = np.clip(disc / (CHIP_RATE / 4.0), -1.5, 1.5)
    nrz = chips_to_transitions(SYNC_CHIPS, start_index=SYNC_START_INDEX)
    template = np.repeat(nrz * 2.0 - 1.0, spc)
    width = template.size
    if disc.size < width:
        return None
    centered = template - template.mean()
    corr = np.correlate(disc, centered, "valid") / np.dot(centered, centered)
    cumulative = np.concatenate([[0.0], np.cumsum(np.abs(x[:-1]) ** 2)])
    windowed = (cumulative[width:] - cumulative[:-width]) / width
    valid = (corr >= 0.45) & (windowed >= 0.25 * np.percentile(windowed, 90))
    search_start = 0
    for _attempt in range(RESYNC_ATTEMPTS):
        above = np.flatnonzero(valid[search_start:])
        if above.size == 0:
            return None
        first = search_start + int(above[0])
        start = first + int(np.argmax(corr[first : first + 2 * spc]))
        dc = disc[start : start + width].mean() - template.mean()
        payload = start + width
        count = min(MAX_FRAME_CHIPS, (disc.size - payload) // spc)
        if count <= 0:
            return None
        soft = (disc[payload : payload + count * spc] - dc).reshape(count, spc)
        chips = transitions_to_chips(
            (soft.sum(axis=1) > 0).astype(np.uint8),
            start_index=SYNC_START_INDEX + SYNC_CHIPS.size,
            previous_chip=int(SYNC_CHIPS[-1]),
        )
        blocks = [
            despread_symbol(chips[k : k + CHIPS_PER_SYMBOL])
            for k in range(0, count - CHIPS_PER_SYMBOL + 1, CHIPS_PER_SYMBOL)
        ]
        symbols = [symbol for symbol, _ in blocks]
        sfd_index = Ppdu.find_sfd(symbols)
        ppdu = (
            Ppdu.parse_symbols(symbols[sfd_index:])
            if sfd_index is not None
            else None
        )
        if ppdu is not None:
            frame = blocks[sfd_index : sfd_index + 4 + 2 * len(ppdu.psdu)]
            if np.mean([distance for _, distance in frame]) <= 12:
                return {
                    "psdu": ppdu.psdu,
                    "fcs_ok": verify_fcs(ppdu.psdu),
                    "sfd_index": sfd_index,
                    "sync_start": start,
                    "sync_score": corr[start],
                    "distances": [distance for _, distance in frame],
                }
        search_start = start + CHIPS_PER_SYMBOL * spc
    return None


payloads = st.binary(min_size=2, max_size=16)
cfos = st.floats(min_value=-50e3, max_value=50e3)
# Strictly positive: a noiseless capture has an exactly-zero margin whose
# normalised sync correlation is 0/0 — any float residue then decides the
# lock arbitrarily, which is a degeneracy of the fixture, not the receiver.
noises = st.floats(min_value=1e-3, max_value=0.01)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
channels = st.integers(min_value=11, max_value=26)


def sfd_sample(frame):
    """Absolute sample index of the SFD — the sync invariant.

    The 802.15.4 preamble repeats every symbol, so two equally-valid locks
    can differ by whole symbols with ``sfd_index`` compensating; the frame
    position ``sync_start + sfd_index · 32 · spc`` is what must agree.
    """
    return frame.sync_start + frame.sfd_index * CHIPS_PER_SYMBOL * SPC


class TestChannelizerTransparency:
    @settings(max_examples=15, deadline=None)
    @given(
        payload=payloads, channel=channels, cfo=cfos, noise=noises, seed=seeds
    )
    def test_channelized_decode_matches_single_channel(
        self, payload, channel, cfo, noise, seed
    ):
        psdu, x = make_capture(payload, cfo, noise, seed)
        grid = WidebandGrid()
        n_out = grid.pad_length(x.size)
        wide = compose_band({channel: x}, grid=grid, n_out=n_out)
        rows = channelize(wide, grid=grid, channels=(channel,))
        direct = decode_chip_frames(
            np.pad(x, (0, n_out - x.size))[None, :], samples_per_chip=SPC
        )
        via_band = decode_chip_frames(rows, samples_per_chip=SPC)
        a, b = direct[0], via_band[0]
        assert a is not None, "direct decode lost a clean frame"
        assert b is not None, "channelized decode lost a clean frame"
        assert b.psdu == a.psdu == psdu
        assert b.fcs_ok is a.fcs_ok is True
        assert sfd_sample(b) == sfd_sample(a)
        assert b.sync_score == pytest.approx(a.sync_score, abs=1e-6)


def assert_matches_oracle(spc, payload, cfo, noise, seed):
    psdu, x = make_capture(payload, cfo, noise, seed, spc=spc)
    frame = decode_chip_frames(x[None, :], samples_per_chip=spc)[0]
    ref = oracle_decode(x, spc)
    assert (frame is None) == (ref is None)
    if ref is None:
        return
    assert frame.psdu == ref["psdu"] == psdu
    assert frame.fcs_ok is ref["fcs_ok"] is True
    assert frame.sfd_index == ref["sfd_index"]
    assert frame.sync_start == ref["sync_start"]
    assert frame.sync_score == pytest.approx(ref["sync_score"], abs=1e-9)
    assert frame.distances == ref["distances"]


class TestBatchSequentialIdentity:
    @settings(max_examples=15, deadline=None)
    @given(payload=payloads, cfo=cfos, noise=noises, seed=seeds)
    def test_batched_matches_sequential_pipeline(
        self, payload, cfo, noise, seed
    ):
        """16 Msps, the Table III rate: the engine against the sequential
        pipeline."""
        assert_matches_oracle(8, payload, cfo, noise, seed)

    @settings(max_examples=15, deadline=None)
    @given(payload=payloads, cfo=cfos, noise=noises, seed=seeds)
    def test_batched_matches_sequential_pipeline_at_fleet_rate(
        self, payload, cfo, noise, seed
    ):
        """4 Msps, the fleet's rate: the direct correlator path."""
        assert_matches_oracle(2, payload, cfo, noise, seed)

    @settings(max_examples=10, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(payloads, cfos, noises, seeds), min_size=2, max_size=5
        )
    )
    def test_stacked_decode_equals_rowwise(self, specs):
        caps = [make_capture(p, c, nz, s)[1] for p, c, nz, s in specs]
        n = max(c.size for c in caps)
        stack = np.stack([np.pad(c, (0, n - c.size)) for c in caps])
        together = decode_chip_frames(stack, samples_per_chip=SPC)
        for i, row in enumerate(stack):
            alone = decode_chip_frames(row[None, :], samples_per_chip=SPC)
            a, b = together[i], alone[0]
            assert (a is None) == (b is None)
            if a is None:
                continue
            assert a.psdu == b.psdu
            assert a.fcs_ok == b.fcs_ok
            assert a.sfd_index == b.sfd_index
            assert a.sync_start == b.sync_start
            # FFT kernels differ by batch shape (SIMD packing), so the
            # float score may move in its last ulp; every decision the
            # receiver makes from it stays integer-exact below.
            assert a.sync_score == pytest.approx(b.sync_score, rel=1e-9)
            assert a.symbols == b.symbols
            assert a.distances == b.distances
            assert a.llrs == b.llrs


class TestShortCaptures:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), spc=st.sampled_from([2, 8]))
    def test_rows_up_to_four_templates_never_lock(self, data, spc):
        """Rows from empty to 4× the sync template: no raise, no frame.

        Even 4× the template is shorter than the SHR and PHR of the
        smallest frame, so no row can hold one.
        """
        template = (SYNC_CHIPS.size - 1) * spc
        n = data.draw(st.integers(min_value=0, max_value=4 * template))
        kinds = data.draw(
            st.lists(st.sampled_from(["zero", "noise"]), min_size=1, max_size=3)
        )
        rng = np.random.default_rng(data.draw(seeds))
        rows = np.zeros((len(kinds), n), dtype=np.complex128)
        for row, kind in zip(rows, kinds):
            if kind == "noise":
                row[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        frames = decode_chip_frames(rows, samples_per_chip=spc)
        assert frames == [None] * len(kinds)


class TestSubsystemExactness:
    @pytest.mark.parametrize("channel", [11, 18, 26])
    def test_compose_channelize_roundtrip_exact(self, channel):
        rng = np.random.default_rng(channel)
        grid = WidebandGrid()
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        wide = compose_band({channel: x}, grid=grid)
        back = channelize(wide, grid=grid, channels=(channel,))[0]
        np.testing.assert_allclose(back[: x.size], x, atol=1e-9)
        np.testing.assert_allclose(back[x.size :], 0.0, atol=1e-9)
