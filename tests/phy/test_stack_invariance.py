"""A row decodes the same whether it is alone or one of a stack.

The medium decodes all of a transmission's captures as one stack
``(K, N)``; each receiver must get exactly what decoding its capture
alone would give it.  These tests hold every stage of the receive engine
to that, bytewise: the channel filter, the discriminator, the power
profile, the FFT sync correlation, the soft symbols, the chips, the
despread distances and LLRs, and the decoded frames.
"""

import numpy as np
import pytest

from repro.dot15d4.fcs import append_fcs
from repro.dsp.filters import apply_filter, fir_lowpass
from repro.dsp.gfsk import _correlate_fft, lazy_capture_power
from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator, _chip_template
from repro.phy.batch import (
    MAX_FRAME_CHIPS,
    SYNC_CHIPS,
    SYNC_START_INDEX,
    decode_chip_frames,
)
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, Ppdu, despread_chips

STACK_SIZES = [1, 4, 6, 12, 20]


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _stack(rows: int, spc: int) -> np.ndarray:
    """*rows* impaired O-QPSK frames (some only noise), equal length."""
    rng = np.random.default_rng(rows * 100 + spc)
    margin = 32 * spc
    frames = []
    for i in range(rows):
        payload = rng.integers(0, 256, 6 + i % 5, dtype=np.uint8)
        chips = Ppdu(append_fcs(bytes(payload))).to_chips()
        frames.append(OqpskModulator(samples_per_chip=spc).modulate(chips))
    n = max(f.samples.size for f in frames) + 2 * margin
    stack = np.zeros((rows, n), dtype=np.complex128)
    t = np.arange(n) / (spc * 2e6)
    for i, frame in enumerate(frames):
        if i % 7 == 3:
            continue  # a noise-only row
        offset = margin + int(rng.integers(-margin // 2, margin // 2))
        stack[i, offset : offset + frame.samples.size] = frame.samples
        stack[i] *= 0.1 * np.exp(2j * np.pi * rng.uniform(-40e3, 40e3) * t)
    stack += rng.uniform(0.002, 0.02, (rows, 1)) * (
        rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    )
    return stack


#: Capture lengths the medium filters: fleet captures at 4 Msps (short and
#: long frames) and a Table III capture at 16 Msps.
FILTER_CASES = [(4e6, 1539), (4e6, 2947), (16e6, 11159)]


@pytest.mark.parametrize("rate, n", FILTER_CASES)
@pytest.mark.parametrize("rows", [1, 2, 3, 7, 12, 20])
def test_channel_filter(rate, n, rows):
    """A stack filtered in one spectral pass equals its rows filtered
    alone, zeroed stretches included."""
    taps = fir_lowpass(1.3e6, rate, 49)
    rng = np.random.default_rng(rows)
    stack = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    stack[rows // 2, n // 3 :] = 0.0  # a truncated row
    stack[-1, 100:400] = 0.0  # a sample-drop gap
    together = apply_filter(taps, stack)
    assert apply_filter(taps, list(stack)).tobytes() == together.tobytes()
    for i, row in enumerate(stack):
        _same(together[i], apply_filter(taps, row))


@pytest.mark.parametrize("spc", [2, 8])
@pytest.mark.parametrize("rows", [1, 6, 12])
def test_filtered_stack_decodes_as_rows(rows, spc):
    """The filter returns a view into its transform rows; the receive
    engine gives each strided row what it gives the row alone."""
    taps = fir_lowpass(1.3e6, spc * 2e6, 49)
    raw = _stack(rows, spc)
    filtered = apply_filter(taps, list(raw))
    demod = OqpskDemodulator(spc)
    disc = demod.front_end(filtered).disc
    _same(disc, demod.front_end(np.ascontiguousarray(filtered)).disc)
    together = decode_chip_frames(filtered, spc)
    assert sum(frame is not None for frame in together) >= rows // 2
    for i, frame in enumerate(together):
        alone = apply_filter(taps, raw[i])
        _same(demod.front_end(alone).disc[0], disc[i])
        assert decode_chip_frames(alone[None, :], spc)[0] == frame


@pytest.mark.parametrize("spc", [2, 8])
@pytest.mark.parametrize("rows", STACK_SIZES)
class TestStackEqualsRows:
    def test_front_end(self, rows, spc):
        stack = _stack(rows, spc)
        demod = OqpskDemodulator(spc)
        disc = demod.front_end(stack).disc
        power = lazy_capture_power(stack)()
        for i, row in enumerate(stack):
            _same(disc[i], demod.front_end(row).disc[0])
            _same(power[i], lazy_capture_power(row)())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fft_sync_correlation(self, rows, spc, dtype):
        disc = OqpskDemodulator(spc).front_end(_stack(rows, spc)).disc
        template = np.random.default_rng(spc).standard_normal(64 * spc)
        disc, template = disc.astype(dtype), template.astype(dtype)
        together = _correlate_fft(disc, template)
        for i in range(rows):
            _same(together[i], _correlate_fft(disc[i : i + 1], template)[0])

    def test_soft_symbols_chips_distances_and_llrs(self, rows, spc):
        stack = _stack(rows, spc)
        demod = OqpskDemodulator(spc)
        front = demod.front_end(stack)
        found = demod.receive_chip_rows(
            front, range(rows), [0] * rows, SYNC_CHIPS, SYNC_START_INDEX,
            MAX_FRAME_CHIPS,
        )
        symbols, distances, llrs = despread_chips(found.chips)
        template = _chip_template(
            SYNC_CHIPS.tobytes(), SYNC_START_INDEX, spc, front.disc.dtype.str
        )
        assert len(found.rows) >= rows - (rows + 3) // 7
        for i, (row, sync, count) in enumerate(
            zip(found.rows, found.syncs, found.counts)
        ):
            alone_front = demod.front_end(stack[row])
            alone = demod.receive_chip_rows(
                alone_front, [0], [0], SYNC_CHIPS, SYNC_START_INDEX,
                MAX_FRAME_CHIPS,
            )
            assert alone.syncs == [sync] and alone.counts == [count]
            payload = sync.start + template.samples.size
            dc = sync.dc_offset / demod._fsk.frequency_deviation
            _same(
                demod._fsk.soft_symbols(front.disc[row], payload, count, dc),
                demod._fsk.soft_symbols(alone_front.disc[0], payload, count, dc),
            )
            chips = alone.chips[0, :count]
            _same(found.chips[i, :count], chips)
            n = count // CHIPS_PER_SYMBOL
            for got, want in zip((symbols, distances, llrs), despread_chips(chips)):
                _same(got[i, :n], want)

    def test_decoded_frames(self, rows, spc):
        stack = _stack(rows, spc)
        together = decode_chip_frames(stack, spc)
        assert sum(frame is not None for frame in together) >= rows // 2
        for row, frame in zip(stack, together):
            assert decode_chip_frames(row[None, :], spc)[0] == frame
