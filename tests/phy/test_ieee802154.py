"""Tests for the 802.15.4 PHY: Table I, DSSS, PPDU framing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy.ieee802154 import (
    CHIPS_PER_SYMBOL,
    MAX_PSDU_SIZE,
    PN_MATRIX,
    PN_SEQUENCES,
    Codebook,
    Ppdu,
    SHR_SYMBOLS,
    byte_for_symbols,
    despread_chips,
    spread_bytes,
    spread_symbols,
    symbols_for_byte,
)

from tests.phy.decode_oracle import symbol_confidences
from tests.phy.despread_oracle import despread_symbol, int32_nearest


class TestTable1:
    def test_sixteen_sequences_of_32_chips(self):
        assert len(PN_SEQUENCES) == 16
        assert all(seq.size == 32 for seq in PN_SEQUENCES)

    def test_first_row_matches_paper(self):
        expected = "11011001110000110101001000101110"
        assert "".join(map(str, PN_SEQUENCES[0])) == expected

    def test_last_row_matches_paper(self):
        expected = "11001001011000000111011110111000"
        assert "".join(map(str, PN_SEQUENCES[15])) == expected

    def test_all_sequences_distinct(self):
        assert len({seq.tobytes() for seq in PN_SEQUENCES}) == 16

    def test_cyclic_shift_structure(self):
        """Symbols 0-7 are 4-chip cyclic rotations of each other (a known
        property of the 802.15.4 code family)."""
        base = PN_SEQUENCES[0]
        for k in range(8):
            assert np.array_equal(PN_SEQUENCES[k], np.roll(base, 4 * k))

    def test_second_family_is_conjugate(self):
        """Symbols 8-15 are symbols 0-7 with odd chips inverted."""
        mask = np.array([0, 1] * 16, dtype=np.uint8)
        for k in range(8):
            assert np.array_equal(PN_SEQUENCES[8 + k], PN_SEQUENCES[k] ^ mask)

    def test_minimum_pairwise_distance(self):
        """The code's error margin: any two PN sequences differ in many
        chip positions (the DSSS processing gain WazaBee relies on)."""
        distances = [
            int(np.count_nonzero(PN_SEQUENCES[i] != PN_SEQUENCES[j]))
            for i in range(16)
            for j in range(i + 1, 16)
        ]
        assert min(distances) >= 12


class TestNibbles:
    def test_low_nibble_first(self):
        assert symbols_for_byte(0xA7) == (0x7, 0xA)

    def test_roundtrip(self):
        for value in range(256):
            low, high = symbols_for_byte(value)
            assert byte_for_symbols(low, high) == value

    def test_validation(self):
        with pytest.raises(ValueError):
            symbols_for_byte(256)
        with pytest.raises(ValueError):
            byte_for_symbols(16, 0)


class TestSpreading:
    def test_spread_bytes_length(self):
        assert spread_bytes(b"\x00").size == 64
        assert spread_bytes(b"ab").size == 128

    def test_spread_symbol_content(self):
        chips = spread_symbols([3])
        assert np.array_equal(chips, PN_SEQUENCES[3])

    def test_spread_empty(self):
        assert spread_bytes(b"").size == 0

    def test_invalid_symbol(self):
        with pytest.raises(ValueError):
            spread_symbols([16])

    def test_despread_exact(self):
        symbols, distances, _ = despread_chips(PN_MATRIX.ravel())
        assert symbols.tolist() == list(range(16))
        assert distances.tolist() == [0] * 16

    def test_despread_with_errors(self):
        """Up to 5 chip flips must still decode (min distance >= 12)."""
        rng = np.random.default_rng(0)
        for symbol in range(16):
            chips = PN_SEQUENCES[symbol].copy()
            flip = rng.choice(32, size=5, replace=False)
            chips[flip] ^= 1
            decoded, distance, _ = despread_chips(chips)
            assert decoded.tolist() == [symbol]
            assert distance.tolist() == [5]

    def test_despread_wrong_size(self):
        """A block shorter than 32 chips despreads to no symbol."""
        symbols, distances, llrs = despread_chips(np.zeros(31, dtype=np.uint8))
        assert symbols.size == distances.size == llrs.size == 0

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.floats(0.0, 0.5),
    )
    def test_despread_chips_matches_scalar_oracle(self, seed, count, flip_p):
        """PN rows plus random chip noise, including ambiguous blocks
        where tie-breaking must agree with the one-block search."""
        rng = np.random.default_rng(seed)
        clean = PN_MATRIX[rng.integers(0, 16, size=count)]
        noisy = clean ^ (rng.random(clean.shape) < flip_p).astype(np.uint8)
        symbols, distances, _ = despread_chips(noisy)
        for row, symbol, distance in zip(noisy, symbols, distances):
            assert (int(symbol[0]), int(distance[0])) == despread_symbol(row)

    def test_despread_chips_stream(self):
        stream = spread_symbols([1, 2, 3])
        symbols, distances, llrs = despread_chips(stream)
        assert symbols.tolist() == [1, 2, 3]
        assert distances.tolist() == [0, 0, 0]
        assert min(llrs) >= 12

    def test_despread_chips_ignores_tail(self):
        stream = np.concatenate([spread_symbols([5]), np.zeros(7, dtype=np.uint8)])
        symbols, _, _ = despread_chips(stream)
        assert symbols.tolist() == [5]

    def test_despread_chips_stack_matches_rows(self):
        rng = np.random.default_rng(4)
        stack = rng.integers(0, 2, (3, 100)).astype(np.uint8)
        together = despread_chips(stack)
        for i, row in enumerate(stack):
            for a, b in zip(together, despread_chips(row)):
                assert a[i].tolist() == b.tolist()
        assert all(out.shape == (3, 3) for out in together)

    @given(st.binary(min_size=1, max_size=16))
    def test_spread_despread_roundtrip(self, data):
        symbols, _, _ = despread_chips(spread_bytes(data))
        reassembled = bytes(
            byte_for_symbols(symbols[2 * i], symbols[2 * i + 1])
            for i in range(len(data))
        )
        assert reassembled == data


def _assert_same_nearest(words, blocks):
    """Codebook(words).nearest(blocks) equals the int32 oracle exactly."""
    got = Codebook(words).nearest(blocks)
    want = int32_nearest(words, blocks)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


class TestCodebookOracle:
    """The float32 BLAS kernel against the int32 matmul it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pn_blocks(self, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 2, (500, CHIPS_PER_SYMBOL), dtype=np.uint8)
        _assert_same_nearest(PN_MATRIX, blocks)

    def test_random_msk_blocks(self):
        from repro.core.tables import default_table

        matrix = default_table().matrix
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 2, (3, 40, matrix.shape[1]), dtype=np.uint8)
        _assert_same_nearest(matrix, blocks)

    def test_noisy_pn_blocks_with_ties(self):
        rng = np.random.default_rng(11)
        clean = PN_MATRIX[rng.integers(0, 16, size=2000)]
        for flip_p in (0.05, 0.25, 0.5):
            noisy = clean ^ (rng.random(clean.shape) < flip_p).astype(np.uint8)
            _assert_same_nearest(PN_MATRIX, noisy)

    def test_real_chip_blocks(self):
        """Chips sliced by the receive engine from noisy O-QPSK frames."""
        from repro.dsp.impairments import awgn
        from repro.dsp.oqpsk import OqpskDemodulator, OqpskModulator
        from repro.phy.batch import (
            MAX_FRAME_CHIPS,
            SYNC_CHIPS,
            SYNC_START_INDEX,
        )

        rng = np.random.default_rng(5)
        chips = Ppdu(bytes(range(60))).to_chips()
        clean = OqpskModulator(samples_per_chip=2).modulate(chips)
        demod = OqpskDemodulator(samples_per_chip=2)
        rows = []
        for snr_db in (12.0, 4.0, 1.0):
            found = demod.receive_chip_rows(
                demod.front_end(awgn(clean, snr_db, rng=rng)),
                [0],
                [0],
                SYNC_CHIPS,
                SYNC_START_INDEX,
                MAX_FRAME_CHIPS,
                threshold=0.2,
            )
            assert found.rows
            got = found.chips[0, : found.counts[0]]
            rows.append(got[: got.size // 32 * 32].reshape(-1, 32))
        blocks = np.concatenate(rows)
        assert int32_nearest(PN_MATRIX, blocks)[1].max() > 0
        _assert_same_nearest(PN_MATRIX, blocks)

    @pytest.mark.parametrize("shape", [(0, 32), (2, 0, 32), (0, 0, 32)])
    def test_empty_blocks(self, shape):
        _assert_same_nearest(PN_MATRIX, np.zeros(shape, dtype=np.uint8))


class TestSymbolConfidences:
    """The soft-decision mapping the decode tests read distances through."""

    def test_mapping_endpoints(self):
        assert symbol_confidences([0]) == [1.0]
        assert symbol_confidences([31]) == [0.0]
        assert symbol_confidences([15]) == pytest.approx([1.0 - 15 / 31.0])
        assert symbol_confidences([]) == []


class TestPpdu:
    def test_shr_symbols(self):
        assert SHR_SYMBOLS == (0,) * 8 + (0x7, 0xA)

    def test_to_symbols_layout(self):
        ppdu = Ppdu(psdu=b"\xab")
        symbols = ppdu.to_symbols()
        assert symbols[:10] == list(SHR_SYMBOLS)
        assert symbols[10:12] == [1, 0]  # PHR = length 1
        assert symbols[12:] == [0xB, 0xA]

    def test_chip_count(self):
        ppdu = Ppdu(psdu=b"xy")
        assert ppdu.to_chips().size == 32 * ppdu.num_symbols
        assert ppdu.num_symbols == 10 + 2 * 3

    def test_max_size_enforced(self):
        with pytest.raises(ValueError):
            Ppdu(psdu=bytes(MAX_PSDU_SIZE + 1))

    def test_parse_roundtrip(self):
        ppdu = Ppdu(psdu=b"hello world")
        symbols = ppdu.to_symbols()
        parsed = Ppdu.parse_symbols(symbols[8:])  # strip preamble only
        assert parsed is not None
        assert parsed.psdu == b"hello world"

    def test_parse_requires_sfd(self):
        assert Ppdu.parse_symbols([0, 0, 1, 0]) is None

    def test_parse_truncated(self):
        ppdu = Ppdu(psdu=b"hello")
        symbols = ppdu.to_symbols()[8:-2]
        assert Ppdu.parse_symbols(symbols) is None

    def test_find_sfd(self):
        symbols = list(SHR_SYMBOLS) + [1, 0]
        assert Ppdu.find_sfd(symbols) == 8

    def test_find_sfd_absent(self):
        assert Ppdu.find_sfd([0] * 20) is None

    def test_find_sfd_respects_limit(self):
        symbols = [0] * 20 + [0x7, 0xA]
        assert Ppdu.find_sfd(symbols, search_limit=10) is None
        assert Ppdu.find_sfd(symbols, search_limit=21) == 20

    @given(st.binary(max_size=32))
    def test_symbols_roundtrip_property(self, psdu):
        symbols = Ppdu(psdu=psdu).to_symbols()
        parsed = Ppdu.parse_symbols(symbols[8:])
        assert parsed is not None and parsed.psdu == psdu
