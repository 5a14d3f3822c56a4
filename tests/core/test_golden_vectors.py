"""Golden-vector corpus: the encoding pipeline pinned bit-for-bit.

The JSON files under ``tests/golden/`` freeze Table I, Algorithm 1's MSK
correspondence, one full TX stream per Zigbee channel and the noiseless
capture→decode roundtrip.  These tests recompute every vector from the
live pipeline and compare against the files byte-for-byte, so any drift —
a single flipped chip, a changed PN table, an altered Access Address —
fails loudly.  Regenerate only after an intentional encoding change with
``PYTHONPATH=src python tests/golden/generate.py``.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.encoding import MSK_STRIDE
from repro.core.rx import decode_payload_bits
from repro.core.tables import pn_to_msk
from repro.dot15d4.channels import ZIGBEE_CHANNELS
from repro.dot15d4.fcs import verify_fcs

from tests.golden import generate

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def _load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


def _unpack_bits(hex_str: str, count: int) -> np.ndarray:
    packed = np.frombuffer(bytes.fromhex(hex_str), dtype=np.uint8)
    return np.unpackbits(packed)[:count]


class TestCorpusPinned:
    """The live pipeline must reproduce every golden file exactly."""

    @pytest.mark.parametrize("name", sorted(generate.CORPUS))
    def test_no_bit_drift(self, name):
        on_disk = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert generate.render(name) == on_disk, (
            f"{name} drifted from the encoding pipeline; if the change is "
            "intentional, regenerate with tests/golden/generate.py"
        )

    @pytest.mark.parametrize("name", sorted(generate.CORPUS))
    def test_byte_stable_across_runs(self, name):
        # Two independent generation runs must serialise identically —
        # the corpus embeds no clock, RNG or dict-order dependence.
        assert generate.render(name) == generate.render(name)


class TestTable1:
    def test_sixteen_sequences_of_32_chips(self):
        doc = _load("table1_pn_sequences.json")
        assert doc["chips_per_symbol"] == 32
        assert sorted(doc["sequences"], key=int) == [str(s) for s in range(16)]
        for bits in doc["sequences"].values():
            assert len(bits) == 32
            assert set(bits) <= {"0", "1"}

    def test_sequences_pairwise_distinct(self):
        doc = _load("table1_pn_sequences.json")
        assert len(set(doc["sequences"].values())) == 16


class TestAlgorithm1:
    def test_correspondence_rederives_from_stored_table1(self):
        """Algorithm 1 applied to the stored Table I gives the stored MSK."""
        table1 = _load("table1_pn_sequences.json")
        alg1 = _load("algorithm1_msk.json")
        for symbol in range(16):
            chips = [int(b) for b in table1["sequences"][str(symbol)]]
            msk = pn_to_msk(chips)
            assert "".join(str(int(b)) for b in msk) == alg1["correspondence"][
                str(symbol)
            ], f"Algorithm 1 output drifted for symbol {symbol}"

    def test_access_address_matches_bit_pattern(self):
        alg1 = _load("algorithm1_msk.json")
        bits = alg1["access_address_bits"]
        assert len(bits) == 32
        # LSB = first on-air bit.
        value = sum(int(b) << i for i, b in enumerate(bits))
        assert f"0x{value:08x}" == alg1["access_address"]


class TestTxStreams:
    def test_all_zigbee_channels_present(self):
        doc = _load("tx_streams.json")
        assert sorted(doc["streams"], key=int) == [
            str(c) for c in ZIGBEE_CHANNELS
        ]

    def test_stream_shape_invariants(self):
        doc = _load("tx_streams.json")
        for channel, stream in doc["streams"].items():
            # One MSK rotation bit per chip period over the whole PPDU.
            assert stream["msk_bit_count"] == stream["chip_count"]
            assert stream["chip_count"] % doc["chips_per_symbol"] == 0
            # 6 PPDU overhead bytes (preamble+SFD+PHR), 2 symbols per byte.
            psdu_bytes = len(bytes.fromhex(stream["psdu"]))
            assert stream["chip_count"] == 32 * 2 * (6 + psdu_bytes)
            assert verify_fcs(bytes.fromhex(stream["psdu"]))

    def test_frequencies_are_the_802154_grid(self):
        doc = _load("tx_streams.json")
        for channel, stream in doc["streams"].items():
            assert stream["frequency_hz"] == (
                2_405_000_000 + 5_000_000 * (int(channel) - 11)
            )


class TestNoiselessRoundtrip:
    """Decoding the stored TX bits must match the stored expectations."""

    @pytest.mark.parametrize("channel", ZIGBEE_CHANNELS)
    def test_decode_from_frozen_bits(self, channel):
        streams = _load("tx_streams.json")["streams"]
        expected = _load("roundtrip.json")
        stream = streams[str(channel)]
        bits = _unpack_bits(stream["msk_bits"], stream["msk_bit_count"])
        decoded = decode_payload_bits(bits[expected["skip_bits"] :])
        assert decoded is not None
        case = expected["cases"][str(channel)]
        assert decoded.psdu.hex() == case["psdu"] == stream["psdu"]
        assert decoded.fcs_ok is True and case["fcs_ok"] is True
        assert decoded.sfd_index == case["sfd_index"]
        assert decoded.mean_distance == pytest.approx(case["mean_distance"])
        assert len(decoded.symbols) == case["symbol_count"]

    def test_skip_bits_is_one_stride(self):
        assert _load("roundtrip.json")["skip_bits"] == MSK_STRIDE


class TestWidebandComposite:
    """The wideband composite vector: channelized decode, pinned."""

    def test_slot_channels_and_metadata(self):
        doc = _load("wideband.json")
        assert doc["seed"] == generate.WIDEBAND_SEED
        assert doc["mode"] == "time"
        assert doc["slot_channels"] == list(generate.WIDEBAND_SLOT_CHANNELS)
        assert sorted(doc["slots"], key=int) == sorted(
            (str(c) for c in generate.WIDEBAND_SLOT_CHANNELS), key=int
        )
        for per_channel in doc["slots"].values():
            assert sorted(per_channel, key=int) == [
                str(c) for c in ZIGBEE_CHANNELS
            ]

    def test_decoded_cells_carry_the_slot_psdu(self):
        """Wherever the FCS verifies, the payload is the slot's golden PSDU."""
        doc = _load("wideband.json")
        for slot_channel, per_channel in doc["slots"].items():
            expected = generate.channel_psdu(int(slot_channel)).hex()
            decoded_ok = 0
            for cell in per_channel.values():
                if cell.get("fcs_ok"):
                    assert cell["psdu"] == expected
                    assert cell["llr_margin"] > 0
                    decoded_ok += 1
            # WiFi-facing channels may deterministically lose a frame;
            # the clean majority of the band must decode.
            assert decoded_ok >= 12

    def test_channelized_decisions_match_sequential_reference(self):
        """The acceptance invariant: the wideband capture decodes all 16
        channels identically to the per-channel sequential pipeline."""
        from tests.phy.wideband_oracle import SequentialFrontEnd

        doc = _load("wideband.json")
        assert generate.wideband_decisions(SequentialFrontEnd) == doc["slots"]

    def test_production_front_end_reproduces_pinned_decisions(self):
        """The shipped spectral band step makes the pinned decisions."""
        from repro.chips.wideband import WidebandFrontEnd

        doc = _load("wideband.json")
        assert generate.wideband_decisions(WidebandFrontEnd) == doc["slots"]


class TestFleetGolden:
    """The fleet campaign vector: counters, curves and ledger, pinned."""

    def test_structure_and_ledger(self):
        doc = _load("fleet.json")
        assert doc["seed"] == generate.FLEET_SEED
        assert doc["num_nodes"] == generate.FLEET_NODES == len(doc["nodes"])
        assert doc["num_pans"] == generate.FLEET_PANS
        assert doc["attack"] is True
        assert doc["ledger_balanced"] is True
        ledger = doc["ledger"]
        assert ledger["medium.deliveries.scheduled"] == (
            ledger["medium.deliveries.delivered"]
            + ledger.get("medium.deliveries.skipped", 0)
        )

    def test_attack_visibly_drains_the_fleet(self):
        doc = _load("fleet.json")
        assert doc["flood_frames"] > 0
        assert doc["battery_curve"][0] == 1.0
        assert doc["battery_curve"][-1] < 0.5
        battery_nodes = [
            n for n in doc["nodes"] if n["role"] != "coordinator"
        ]
        assert doc["alive_curve"][0] == len(battery_nodes)


class TestCachedSynthesisGolden:
    """Cached waveform synthesis must match the direct modulator on every
    golden per-channel TX stream (the signals that actually go on air)."""

    @pytest.mark.parametrize("channel", ZIGBEE_CHANNELS)
    def test_cached_equals_direct_on_golden_stream(self, channel):
        from repro.dsp.gfsk import FskModulator, GfskConfig, WaveformCache

        stream = _load("tx_streams.json")["streams"][str(channel)]
        bits = _unpack_bits(stream["msk_bits"], stream["msk_bit_count"])
        config = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=0.5)
        cache = WaveformCache(config, 2e6)
        direct = FskModulator(config, 2e6)
        fast = cache.synthesize(bits)
        ref = direct.modulate_direct(bits).samples
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= 1e-9
