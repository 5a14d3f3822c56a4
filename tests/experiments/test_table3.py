"""Tests for the Table III harness (small frame counts for speed)."""

import pytest

from repro.chips import Nrf52832
from repro.experiments import environment
from repro.experiments.environment import (
    build_bench,
    build_testbed,
    counter_frame,
)
from repro.experiments.table3 import (
    ChannelResult,
    Table3Result,
    format_table3,
    run_table3,
    run_table3_cell,
    run_table3_wideband,
)


class TestEnvironment:
    def test_build_testbed_deterministic(self):
        a = build_testbed(seed=4)
        b = build_testbed(seed=4)
        assert a.medium.noise_floor_dbm == b.medium.noise_floor_dbm
        assert a.rng.integers(0, 2**63) == b.rng.integers(0, 2**63)

    def test_profile_defaults_match_paper(self):
        assert environment.DISTANCE_M == 3.0
        assert environment.WIFI_CHANNELS == (6, 11)
        assert build_testbed().reference_position == (3.0, 0.0)

    def test_interferers_installed(self):
        testbed = build_testbed()
        assert len(testbed.medium.interferers) == 2

    def test_device_rng_streams_independent(self):
        testbed = build_testbed(seed=1)
        a = testbed.device_rng(1).integers(0, 1000)
        b = testbed.device_rng(2).integers(0, 1000)
        assert a != b

    @pytest.mark.parametrize("primitive", ["rx", "tx"])
    def test_bench_slot_returns_the_receptions(self, primitive):
        bench = build_bench(Nrf52832, primitive, 11, seed=1)
        frame = counter_frame(7)
        assert bench.slot(frame) == [(frame.to_bytes(), True)]
        # Each slot starts from an empty list.
        assert bench.slot(counter_frame(8)) == [
            (counter_frame(8).to_bytes(), True)
        ]

    def test_counter_frame_wraps_at_16_bits(self):
        # Past frame 65,535 the counter wraps instead of overflowing.
        assert counter_frame(65536 + 5).to_bytes() == counter_frame(5).to_bytes()


class TestCells:
    @pytest.mark.parametrize("chip", ["nRF52832", "CC1352-R1"])
    @pytest.mark.parametrize("primitive", ["rx", "tx"])
    def test_clean_channel_mostly_valid(self, chip, primitive):
        result = run_table3_cell(chip, primitive, channel=11, frames=10, seed=1)
        assert result.total == 10
        assert result.valid >= 9

    def test_counts_partition(self):
        result = run_table3_cell("nRF52832", "rx", 17, frames=8, seed=2)
        assert result.valid + result.corrupted + result.lost == 8

    def test_valid_rate(self):
        cell = ChannelResult(channel=11)
        cell.valid, cell.corrupted, cell.lost = 98, 1, 1
        assert cell.valid_rate == pytest.approx(0.98)
        assert ChannelResult(channel=11).valid_rate == 0.0

    def test_unknown_chip_rejected(self):
        with pytest.raises(ValueError):
            run_table3_cell("ESP32", "rx", 11)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            run_table3_cell("nRF52832", "both", 11)
        with pytest.raises(ValueError):
            build_bench(Nrf52832, "both", 11)

    @pytest.mark.parametrize("frames", [0, -3])
    def test_frame_count_must_be_positive(self, frames):
        with pytest.raises(ValueError, match="frames must be >= 1"):
            run_table3_cell("nRF52832", "rx", 11, frames=frames)
        with pytest.raises(ValueError, match="frames must be >= 1"):
            run_table3(frames=frames, channels=(11,), chips=("nRF52832",))
        with pytest.raises(ValueError, match="frames must be >= 1"):
            run_table3_wideband(frames=frames, channels=(11,), workers=1)

    def test_seed_reproducibility(self):
        a = run_table3_cell("nRF52832", "tx", 14, frames=10, seed=5)
        b = run_table3_cell("nRF52832", "tx", 14, frames=10, seed=5)
        assert (a.valid, a.corrupted, a.lost) == (b.valid, b.corrupted, b.lost)


def _flatten(result: Table3Result):
    return {
        (chip, primitive, channel): (cell.valid, cell.corrupted, cell.lost)
        for (chip, primitive), rows in result.cells.items()
        for channel, cell in rows.items()
    }


class TestParallelRun:
    KWARGS = dict(
        frames=4,
        channels=(11, 17),
        chips=("nRF52832",),
        primitives=("rx", "tx"),
        seed=3,
    )

    def test_parallel_matches_serial_exactly(self):
        """Every cell is independently seeded via crc32(chip/primitive/
        channel), so the process fan-out must be bit-identical."""
        serial = run_table3(**self.KWARGS, workers=1)
        parallel = run_table3(**self.KWARGS, workers=2)
        assert _flatten(serial) == _flatten(parallel)
        assert serial.frames_per_cell == parallel.frames_per_cell

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            run_table3(**self.KWARGS, workers=0)

    def test_cli_exposes_workers(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["table3", "--workers", "4"])
        assert args.workers == 4


class TestFullRun:
    def test_subset_run_structure(self):
        result = run_table3(
            frames=4, channels=(11, 14), chips=("nRF52832",), primitives=("rx",)
        )
        assert set(result.cells) == {("nRF52832", "rx")}
        assert set(result.cells[("nRF52832", "rx")]) == {11, 14}
        assert result.average_valid_rate("nRF52832", "rx") > 0.5

    def test_format_contains_channels_and_averages(self):
        result = run_table3(
            frames=2,
            channels=(11, 12),
            chips=("nRF52832", "CC1352-R1"),
            primitives=("rx", "tx"),
        )
        text = format_table3(result)
        assert "11" in text and "12" in text
        assert "averages:" in text
        assert "nRF52832" in text and "CC1352-R1" in text


class TestWaveformCacheRegression:
    """A cold and a warm waveform cache must yield byte-identical cells."""

    def test_cold_and_warm_cache_identical(self):
        from repro.dsp.gfsk import clear_waveform_caches

        def snapshot():
            cell = run_table3_cell(
                "nRF52832", "tx", channel=15, frames=6, seed=3
            )
            return (cell.valid, cell.corrupted, cell.lost, cell.metrics)

        clear_waveform_caches()
        cold = snapshot()
        warm = snapshot()
        assert cold == warm

    def test_run_table3_cold_vs_warm_identical(self):
        from repro.dsp.gfsk import clear_waveform_caches

        def snapshot():
            result = run_table3(frames=4, channels=(12,), chips=("nRF52832",))
            return {
                key: (cell.valid, cell.corrupted, cell.lost, cell.metrics)
                for key, rows in result.cells.items()
                for cell in rows.values()
            }

        clear_waveform_caches()
        cold = snapshot()
        warm = snapshot()
        assert cold == warm
