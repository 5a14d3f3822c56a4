"""Tests for the noncoherent correlator-bank O-QPSK receiver."""

import numpy as np
import pytest

from repro.core.encoding import frame_to_msk_bits
from repro.dot15d4.frames import Address, build_data
from repro.dsp.coherent import CorrelatorBank
from repro.dsp.gfsk import FskModulator, GfskConfig
from repro.dsp.impairments import awgn
from repro.dsp.oqpsk import OqpskModulator
from repro.dsp.signal import IQSignal
from repro.phy.ieee802154 import Ppdu
from tests.dsp.impairment_helpers import apply_phase_offset


@pytest.fixture(scope="module")
def bank():
    return CorrelatorBank(samples_per_chip=8)


def make_frame():
    frame = build_data(
        Address(pan_id=1, address=1),
        Address(pan_id=1, address=2),
        b"corr",
        sequence_number=1,
    )
    return Ppdu(frame.to_bytes())


def decode_ok(bank, sig, ppdu):
    start = bank.acquire(sig)
    if start is None:
        return False
    decoded = bank.decode(sig, start, max_symbols=ppdu.num_symbols)
    sfd = Ppdu.find_sfd(decoded.symbols)
    if sfd is None:
        return False
    parsed = Ppdu.parse_symbols(decoded.symbols[sfd:])
    return parsed is not None and parsed.psdu == ppdu.psdu


class TestReferences:
    def test_shapes(self, bank):
        assert bank._references.shape == (2, 16, 32 * 8)

    def test_references_unit_modulus_interior(self, bank):
        interior = bank._references[0, 0][8:-8]
        assert np.allclose(np.abs(interior), 1.0, atol=1e-9)

    def test_previous_chip_matters(self, bank):
        a = bank._references[0, 3]
        b = bank._references[1, 3]
        assert not np.allclose(a, b)


class TestNativeDecode:
    def test_clean(self, bank):
        ppdu = make_frame()
        sig = OqpskModulator(8).modulate(ppdu.to_chips())
        assert decode_ok(bank, sig, ppdu)

    def test_noisy(self, bank, rng):
        ppdu = make_frame()
        sig = awgn(OqpskModulator(8).modulate(ppdu.to_chips()), 2.0, rng)
        assert decode_ok(bank, sig, ppdu)

    def test_noncoherent_to_phase(self, bank):
        ppdu = make_frame()
        sig = apply_phase_offset(
            OqpskModulator(8).modulate(ppdu.to_chips()), 1.234
        )
        assert decode_ok(bank, sig, ppdu)

    def test_acquire_rejects_noise(self, bank, rng):
        noise = IQSignal(
            0.01 * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)),
            16e6,
        )
        assert bank.acquire(noise) is None

    def test_acquire_rejects_short_capture(self, bank):
        assert bank.acquire(IQSignal(np.ones(100), 16e6)) is None

    def test_sample_rate_checked(self, bank):
        with pytest.raises(ValueError):
            bank.acquire(IQSignal(np.ones(4096), 8e6))


class TestWazaBeeDecode:
    def test_accepts_gfsk_emission(self, bank):
        """The architecture ablation: a matched-filter receiver accepts the
        diverted BLE waveform too."""
        ppdu = make_frame()
        bits = frame_to_msk_bits(ppdu.psdu)
        sig = FskModulator(GfskConfig(8, 0.5, 0.5), 2e6).modulate(bits)
        assert decode_ok(bank, sig, ppdu)

    def test_accepts_gfsk_emission_in_noise(self, bank, rng):
        ppdu = make_frame()
        bits = frame_to_msk_bits(ppdu.psdu)
        sig = awgn(FskModulator(GfskConfig(8, 0.5, 0.5), 2e6).modulate(bits), 3.0, rng)
        assert decode_ok(bank, sig, ppdu)

    def test_truncated_capture_partial_decode(self, bank):
        ppdu = make_frame()
        sig = OqpskModulator(8).modulate(ppdu.to_chips())
        start = bank.acquire(sig)
        decoded = bank.decode(sig, start, max_symbols=5)
        assert len(decoded.symbols) == 5
        assert decoded.symbols == [0, 0, 0, 0, 0]
