"""Tests for the command-line interface."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

_IMPORT_SCRIPT = """
import sys
import repro.cli
from repro.experiments.fleet import run_fleet_campaign
from repro.zigbee.fleet import make_fleet

loaded = "scipy.signal" in sys.modules
run_fleet_campaign(make_fleet(num_nodes=8, num_pans=2), duration_s=0.0)
print(loaded, "scipy.signal" in sys.modules)
"""


def test_import_leaves_scipy_signal_out():
    """A fresh ``import repro.cli``, and a fleet build after it (which
    designs the receive filter), never load ``scipy.signal``: its import
    costs more than the rest of the package."""
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_IMPORT_SCRIPT)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
        check=True,
    )
    assert done.stdout.split() == ["False", "False"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_table3_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.frames == 100
        assert args.chips == ["nRF52832", "CC1352-R1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table3", "--chaos", "nope"], "invalid choice: 'nope'"),
            (["fleet", "--chaos", "nope"], "invalid choice: 'nope'"),
            (["table3", "--workers", "0"], "--workers: must be >= 1"),
            (["fleet", "--workers", "0"], "--workers: must be >= 1"),
        ],
    )
    def test_bad_chaos_or_workers_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestStaticTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "11011001 11000011 01010010 00101110" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "2420 MHz" in out and "2480 MHz" in out

    def test_alg1(self, capsys):
        assert main(["alg1"]) == 0
        out = capsys.readouterr().out
        assert "access address" in out.lower()


class TestRunners:
    def test_table3_small(self, capsys):
        code = main(
            ["table3", "--frames", "3", "--channels", "11",
             "--chips", "nRF52832", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "averages:" in out

    @pytest.mark.parametrize("wideband", [[], ["--wideband"]])
    def test_table3_rejects_zero_frames(self, capsys, wideband):
        code = main(
            ["table3", "--frames", "0", "--channels", "11",
             "--chips", "nRF52832", *wideband]
        )
        assert code == 2
        assert "frames must be >= 1" in capsys.readouterr().err

    def test_scenario_b_open_network(self, capsys):
        assert main(["scenario-b", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "sensor channel after: 26" in out

    def test_scenario_b_secured_network(self, capsys):
        assert main(["scenario-b", "--duration", "20", "--secure"]) == 0
        out = capsys.readouterr().out
        assert "sensor channel after: 14" in out
        assert "0 spoofed" in out

    def test_symmetric(self, capsys):
        assert main(["symmetric"]) == 0
        out = capsys.readouterr().out
        assert "CRC accepted:      False" in out

    def test_similarity_quick(self, capsys):
        assert main(["similarity", "--bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "viable pivot" in out
