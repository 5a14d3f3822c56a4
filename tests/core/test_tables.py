"""Tests for Algorithm 1 and the correspondence table."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.tables import (
    MSK_BITS_PER_SYMBOL,
    CorrespondenceTable,
    default_table,
    pn_to_msk,
)
from repro.dsp.msk import chips_to_transitions
from repro.phy.ieee802154 import PN_SEQUENCES

from tests.phy.despread_oracle import decode_block


class TestAlgorithm1:
    def test_output_length(self):
        assert pn_to_msk(PN_SEQUENCES[0]).size == 31

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            pn_to_msk(np.zeros(31, dtype=np.uint8))

    def test_deterministic(self):
        assert np.array_equal(pn_to_msk(PN_SEQUENCES[5]), pn_to_msk(PN_SEQUENCES[5]))

    def test_all_encodings_distinct(self):
        encodings = {pn_to_msk(seq).tobytes() for seq in PN_SEQUENCES}
        assert len(encodings) == 16

    def test_matches_physics_when_initial_state_holds(self):
        """Algorithm 1 assumes the phase state preceding the sequence; for
        the 8 PN sequences whose first chip is 1 the assumption holds and
        the output equals the physics-exact stream conversion everywhere."""
        for seq in PN_SEQUENCES:
            alg = pn_to_msk(seq)
            physics = chips_to_transitions(seq, start_index=0)
            if seq[0] == 1:
                assert np.array_equal(alg, physics)
            else:
                # Only the first transition can differ.
                assert np.array_equal(alg[1:], physics[1:])
                assert alg[0] != physics[0]

    def test_worked_example_symbol_zero(self):
        """Hand-checkable prefix: PN0 = 1101 1001..., transitions
        t_i = c_i ^ c_{i-1} ^ (i odd)."""
        expected_prefix = [1, 1, 0, 0, 0]
        assert pn_to_msk(PN_SEQUENCES[0])[:5].tolist() == expected_prefix


class TestCorrespondenceTable:
    def test_matrix_shape(self):
        table = CorrespondenceTable.build()
        assert table.matrix.shape == (16, MSK_BITS_PER_SYMBOL)

    def test_rows_match_algorithm(self):
        table = CorrespondenceTable.build()
        for symbol in range(16):
            assert np.array_equal(
                table.msk_sequence(symbol), pn_to_msk(PN_SEQUENCES[symbol])
            )

    def test_symbol_range_validation(self):
        table = default_table()
        with pytest.raises(ValueError):
            table.msk_sequence(16)

    def test_decode_exact(self):
        table = default_table()
        for symbol in range(16):
            decoded, distance = table.decode_blocks(
                table.msk_sequence(symbol)[None, :]
            )
            assert decoded.tolist() == [symbol] and distance.tolist() == [0]

    def test_decode_with_bitflips(self):
        table = default_table()
        rng = np.random.default_rng(7)
        for symbol in range(16):
            block = table.msk_sequence(symbol).copy()
            block[rng.choice(31, size=4, replace=False)] ^= 1
            decoded, distance = table.decode_blocks(block[None, :])
            assert decoded.tolist() == [symbol]
            assert distance.tolist() == [4]

    def test_decode_wrong_length(self):
        with pytest.raises(ValueError):
            default_table().decode_blocks(np.zeros((1, 30), dtype=np.uint8))

    def test_minimum_pairwise_distance(self):
        """The MSK-domain code distance that makes 31-bit Hamming matching
        robust (§IV-D)."""
        table = default_table()
        m = table.matrix
        distances = [
            int(np.count_nonzero(m[i] != m[j]))
            for i in range(16)
            for j in range(i + 1, 16)
        ]
        assert min(distances) >= 8

    def test_as_dict(self):
        dump = default_table().as_dict()
        assert len(dump) == 16
        assert all(len(v) == 31 for v in dump.values())

    @given(st.integers(0, 15), st.integers(0, 3))
    def test_decode_correct_within_margin(self, symbol, num_flips):
        """Any ≤3 flips never change the decoded symbol (min distance 8)."""
        table = default_table()
        block = table.msk_sequence(symbol).copy()
        rng = np.random.default_rng(symbol * 7 + num_flips)
        if num_flips:
            block[rng.choice(31, size=num_flips, replace=False)] ^= 1
        decoded, _ = table.decode_blocks(block[None, :])
        assert decoded.tolist() == [symbol]


class TestDecodeBlocksVectorised:
    """The vectorised decoder must be bit-exact with the scalar oracle."""

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=31, max_size=31),
            min_size=1,
            max_size=24,
        )
    )
    def test_matches_scalar_on_random_blocks(self, rows):
        table = default_table()
        blocks = np.array(rows, dtype=np.uint8)
        symbols, distances = table.decode_blocks(blocks)
        for row, symbol, distance in zip(blocks, symbols, distances):
            ref_symbol, ref_distance = decode_block(table, row)
            assert (int(symbol), int(distance)) == (ref_symbol, ref_distance)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.floats(0.0, 0.5),
    )
    def test_matches_scalar_on_noisy_codewords(self, seed, count, flip_p):
        """Table rows plus random chip noise — the shape of real captures,
        including ambiguous blocks where tie-breaking must agree."""
        table = default_table()
        rng = np.random.default_rng(seed)
        clean = table.matrix[rng.integers(0, 16, size=count)]
        noisy = clean ^ (rng.random(clean.shape) < flip_p).astype(np.uint8)
        symbols, distances = table.decode_blocks(noisy)
        for row, symbol, distance in zip(noisy, symbols, distances):
            ref_symbol, ref_distance = decode_block(table, row)
            assert (int(symbol), int(distance)) == (ref_symbol, ref_distance)

    def test_exact_codewords_roundtrip(self):
        table = default_table()
        symbols, distances = table.decode_blocks(table.matrix)
        assert symbols.tolist() == list(range(16))
        assert distances.tolist() == [0] * 16

    def test_rejects_wrong_shape(self):
        table = default_table()
        with pytest.raises(ValueError):
            table.decode_blocks(np.zeros((4, 30), dtype=np.uint8))
        with pytest.raises(ValueError):
            table.decode_blocks(np.zeros(31, dtype=np.uint8))

    def test_empty_capture(self):
        symbols, distances = default_table().decode_blocks(
            np.zeros((0, 31), dtype=np.uint8)
        )
        assert symbols.size == 0 and distances.size == 0
