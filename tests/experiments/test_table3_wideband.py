"""The wideband Table III sweep against its reference band steps.

Production builds each band capture in the frequency domain only.  The
oracles in ``tests/phy/wideband_oracle.py`` replace just that band step —
wide-rate time samples through compose → channelize, or no band at all —
and draw identical random streams, so every (chip, primitive, channel)
cell must come out the same.
"""

import numpy as np
import pytest

from repro.chips.wideband import SWEEP_GRID
from repro.cli import main
from repro.experiments.table3 import (
    CHIP_FACTORIES,
    _run_wideband_pair,
    run_table3,
    run_table3_wideband,
)
from repro.phy.channelizer import WidebandGrid

from tests.phy.wideband_oracle import SequentialFrontEnd, TimeDomainFrontEnd

FRAMES = 10
PRIMITIVES = ("rx", "tx")

GRIDS = {
    "sweep-complex64": (SWEEP_GRID, np.complex64),
    "16msps-complex128": (WidebandGrid(), np.complex128),
}


def cells_of(cells_by_pair):
    return {
        (chip, primitive, channel): (cell.valid, cell.corrupted, cell.lost)
        for (chip, primitive), rows in cells_by_pair.items()
        for channel, cell in rows.items()
    }


def oracle_cells(front_end_cls, channels, frames, grid, dtype):
    """The sweep of ``run_table3_wideband(seed=0)`` on an oracle band step
    (the production one for ``None``)."""
    return cells_of(
        {
            (chip, primitive): _run_wideband_pair(
                chip,
                primitive,
                channels,
                frames,
                0,
                grid,
                np.dtype(dtype),
                front_end_cls=front_end_cls,
            )
            for chip in CHIP_FACTORIES
            for primitive in PRIMITIVES
        }
    )


def production_cells(channels, frames, grid, dtype):
    """The production sweep's cells: ``run_table3_wideband`` itself on the
    sweep raster, its per-pair step on any other grid."""
    if (grid, dtype) == GRIDS["sweep-complex64"]:
        result = run_table3_wideband(frames=frames, channels=channels, workers=1)
        return cells_of(result.cells)
    return oracle_cells(None, channels, frames, grid, dtype)


class TestOracleAgreement:
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_three_band_steps_classify_every_cell_alike(self, grid_name):
        grid, dtype = GRIDS[grid_name]
        channels = (11, 18, 26)
        spectral = production_cells(channels, FRAMES, grid, dtype)
        assert len(spectral) == len(CHIP_FACTORIES) * 2 * len(channels)
        for key, (valid, corrupted, lost) in spectral.items():
            assert valid + corrupted + lost == FRAMES, key
        for oracle in (TimeDomainFrontEnd, SequentialFrontEnd):
            assert (
                oracle_cells(oracle, channels, FRAMES, grid, dtype) == spectral
            ), oracle.__name__

    def test_adjacent_channel_leakage_matches_time_domain_band(self):
        """At 16 Msps neighbouring channel windows overlap, so the
        spectral leakage term decides cells; the per-channel oracle has
        no leakage and is not expected to agree here."""
        grid, dtype = GRIDS["16msps-complex128"]
        channels = (16, 17, 18)
        spectral = production_cells(channels, 8, grid, dtype)
        assert (
            oracle_cells(TimeDomainFrontEnd, channels, 8, grid, dtype)
            == spectral
        )


_REPEATED_CHIPS = dict(chips=("nRF52832", "nRF52832"))
_REPEATED_PRIMITIVES = dict(primitives=("rx", "rx"))


class TestArguments:
    def test_wideband_rejects_repeated_channels(self):
        with pytest.raises(ValueError, match="repeated"):
            run_table3_wideband(frames=3, channels=(11, 11), workers=1)

    def test_narrowband_rejects_repeated_channels(self):
        with pytest.raises(ValueError, match="repeated"):
            run_table3(frames=3, channels=(11, 12, 11), chips=("nRF52832",))

    @pytest.mark.parametrize(
        "run, grid, message",
        [
            (run_table3, _REPEATED_CHIPS, "chips must be distinct"),
            (run_table3_wideband, _REPEATED_CHIPS, "chips must be distinct"),
            # The wideband sweep always runs both primitives.
            (run_table3, _REPEATED_PRIMITIVES, "primitives must be distinct"),
        ],
        ids=["chips-narrowband", "chips-wideband", "primitives-narrowband"],
    )
    def test_rejects_repeated_chips_and_primitives(self, run, grid, message):
        with pytest.raises(ValueError, match=message):
            run(frames=1, channels=(11,), **grid)

    def test_cli_repeated_channels_exit_2(self, capsys):
        code = main(
            [
                "table3",
                "--wideband",
                "--channels",
                "11",
                "11",
                "--frames",
                "3",
                "--chips",
                "nRF52832",
            ]
        )
        assert code == 2
        assert "repeated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "wideband", [[], ["--wideband"]], ids=["narrowband", "wideband"]
    )
    def test_cli_repeated_chips_exit_2(self, capsys, wideband):
        code = main(
            [
                "table3",
                *wideband,
                "--channels",
                "11",
                "--frames",
                "1",
                "--chips",
                "nRF52832",
                "nRF52832",
            ]
        )
        assert code == 2
        assert "chips must be distinct" in capsys.readouterr().err

    def test_wideband_workers_validation(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_table3_wideband(frames=1, channels=(11,), workers=0)
