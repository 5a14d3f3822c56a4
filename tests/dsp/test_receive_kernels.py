"""The per-delivery receive kernels against their reference formulations.

Every kernel a delivery runs between the channel filter and the MAC was
swapped for a cheaper one only because it is bit-identical to the
expression it replaced (``receive_oracle``).  These tests compare raw
bytes, so a last-bit or signed-zero difference fails them.
"""

import numpy as np
import pytest

from repro.dsp.gfsk import (
    FskDemodulator,
    GfskConfig,
    _integrate_and_dump,
    _RssiGate,
)
from tests.dsp import receive_oracle

#: (symbol rate, samples per symbol, modulation index): the 4 Msps
#: 802.15.4 chip demodulator, the 16 Msps one and BLE 1M at 8 sps.
MODEMS = [(2e6, 2, 0.5), (2e6, 8, 0.5), (1e6, 8, 0.5)]


def _demodulator(rate, sps, h=0.5):
    return FskDemodulator(GfskConfig(sps, h, None), rate)


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _capture(rng, shape, dtype):
    """Complex noise with runs of exact and signed zeros and tiny values."""
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = samples.reshape(-1)
    if flat.size >= 24:
        flat[:4] = 0.0
        flat[4:8] = complex(-0.0, -0.0)
        flat[8:12] = complex(0.0, -0.0)
        flat[12:16] = complex(-0.0, 0.0)
        flat[16:20] = complex(-1.0, -0.0)
        flat[rng.random(flat.size) < 0.03] = complex(-0.0, 0.0)
        flat[rng.random(flat.size) < 0.03] = complex(0.0, -0.0)
        flat[rng.random(flat.size) < 0.02] *= 1e-30
    return samples.astype(dtype)


class TestDiscriminator:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        # The (12, 2947), (20, 2947) and (20000,) cases reach 256 KiB,
        # where the ``*`` operator would evaluate the lag product in place
        # on its conj temporary.
        "shape",
        [(0,), (1,), (2,), (2947,), (20000,), (3, 0), (1, 2947), (12, 2947),
         (20, 2947)],
    )
    @pytest.mark.parametrize("modem", MODEMS)
    def test_matches_reference(self, modem, shape, dtype):
        demod = _demodulator(*modem)
        capture = _capture(np.random.default_rng(len(shape)), shape, dtype)
        want = receive_oracle.discriminate(
            capture, demod.sample_rate, demod.frequency_deviation
        )
        _assert_identical(demod.discriminate(capture), want)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("rows", [1, 4, 6, 12, 20])
    @pytest.mark.parametrize("modem", MODEMS)
    def test_stack_equals_rows(self, modem, rows, dtype):
        """A row's output does not depend on how many rows share its stack."""
        demod = _demodulator(*modem)
        stack = _capture(np.random.default_rng(rows), (rows, 2947), dtype)
        alone = np.stack([demod.discriminate(row) for row in stack])
        _assert_identical(demod.discriminate(stack), alone)


def _disc(rng, size, dtype):
    """Discriminator-like values with signed zeros and all-(−0) stretches."""
    disc = np.clip(rng.standard_normal(size) * 0.8, -1.5, 1.5)
    disc[rng.random(size) < 0.1] = 0.0
    disc[rng.random(size) < 0.1] = -0.0
    disc[: size // 8] = -0.0
    return disc.astype(dtype)


class TestSoftSymbols:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sps", list(range(1, 17)) + [24, 130, 300])
    @pytest.mark.parametrize("count", [0, 1, 7, 700])
    def test_kernel_matches_reshape_sum(self, sps, count, dtype):
        window = _disc(np.random.default_rng(sps + count), sps * count, dtype)
        want = receive_oracle.soft_symbols(window, 0, count, sps, 0.0)
        _assert_identical(_integrate_and_dump(window, sps), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sps", list(range(2, 17)) + [130])
    def test_matches_reshape_sum(self, sps, dtype):
        rng = np.random.default_rng(sps)
        demod = _demodulator(1e6, sps)
        disc = _disc(rng, 40 * sps + 7, dtype)
        for start, count, dc in [
            (0, 40, 0.0),
            (3, 39, 0.0),
            (5, 17, 0.137),
            (1, 1, -0.25),
            (0, 0, 0.0),
        ]:
            want = receive_oracle.soft_symbols(disc, start, count, sps, dc)
            _assert_identical(demod.soft_symbols(disc, start, count, dc), want)

    def test_all_negative_zero_symbols(self):
        """A symbol of −0 samples sums to +0, as the reduction does."""
        demod = _demodulator(1e6, 2)
        disc = np.full(8, -0.0)
        soft = demod.soft_symbols(disc, 0, 4)
        assert np.signbit(soft).tolist() == [False] * 4


class TestRssiGate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [1, 126, 504])
    def test_sufficient_level_is_max_window_mean(self, window, dtype):
        rng = np.random.default_rng(window)
        power = (rng.random(2946) * 10.0 ** rng.uniform(-6, 0, 2946)).astype(
            dtype
        )
        gate = _RssiGate(power, window)
        want = receive_oracle.rssi_sufficient(power, window)
        assert type(gate.sufficient) is type(want)
        assert gate.sufficient == want
