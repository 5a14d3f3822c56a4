"""``scripts/ab.py`` reports each side's failures next to its timings.

The script is loaded by path, and its table printer is fed runs shaped
like ``fleetbench/run.py``'s last output line (metric values already
unwrapped), so no benchmark runs here.
"""

import importlib.util

from tests.golden import generate

SCRIPT = generate.GOLDEN_DIR.parents[1] / "scripts" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(campaign_ms, correct=True, attempted=5, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"campaign_ms": campaign_ms},
    }


def test_clean_runs_report_no_failures(capsys):
    ab = _load_ab()
    runs = {
        "a": [_run(100.0), _run(102.0)],
        "b": [_run(98.0), _run(99.0)],
    }
    assert ab._report("report", runs, {"campaign_ms": "lower"}) == 0
    lines = capsys.readouterr().out.splitlines()
    (header,) = [line for line in lines if line.startswith("| metric ")]
    assert header.endswith(
        "| A failed/attempted | A incorrect | B failed/attempted | B incorrect |"
    )
    (row,) = [line for line in lines if line.startswith("| campaign_ms ")]
    assert row.endswith("| 2/2 | True | 0/10 | 0 | 0/10 | 0 |")


def test_failed_and_incorrect_runs_are_counted_per_side(capsys):
    ab = _load_ab()
    runs = {
        "a": [_run(100.0), _run(101.0)],
        "b": [
            _run(99.0, correct=False, attempted=4, failed=1),
            _run(98.0, attempted=6),
        ],
    }
    assert ab._report("flood", runs, {"campaign_ms": "lower"}) == 1
    (row,) = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("| campaign_ms ")
    ]
    assert row.endswith("| 0/10 | 0 | 1/10 | 1 |")


def _cell(wall_ms, valid, corrupted):
    return {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {"table3_cell_wall_clock": wall_ms},
        "tallies": [[valid, corrupted]],
    }


def test_table3_cells_must_decode_the_same_frames(capsys):
    ab = _load_ab()
    runs = {
        "a": [_cell(70.0, 24, 1), _cell(71.0, 24, 1)],
        # B's second cell decodes one frame fewer.
        "b": [_cell(69.0, 24, 1), _cell(68.0, 23, 1)],
    }
    directions = {"table3_cell_wall_clock": "lower"}
    assert ab._report("table3_cell", runs, directions) == 1
    (row,) = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("| table3_cell_wall_clock ")
    ]
    assert row.endswith("| 0/2 | 0 | 0/2 | 1 |")
    runs["b"][1] = _cell(68.0, 24, 1)
    assert ab._report("table3_cell", runs, directions) == 0


def test_wifi_cell_holds_corrupted_and_lost_frames():
    """The untimed cell must hold both corrupted and lost frames, or a
    shift between the two could not change the tallies a pair compares."""
    from repro.experiments.table3 import run_table3_cell

    chip, primitive, channel, frames, seed = _load_ab().WIFI_CELL
    cell = run_table3_cell(
        chip, primitive, channel=channel, frames=frames, seed=seed
    )
    assert channel in (17, 18, 21, 22, 23)
    assert cell.valid < frames
    assert cell.corrupted > 0
    assert frames - cell.valid - cell.corrupted > 0


def test_a_corrupted_to_lost_shift_is_an_incorrect_b_run(capsys):
    ab = _load_ab()
    a = _cell(70.0, 100, 0)
    a["tallies"].append([46, 2])
    b = _cell(69.0, 100, 0)
    # Same valid count; one corrupted frame of the WiFi cell is now lost.
    b["tallies"].append([46, 1])
    directions = {"table3_cell_wall_clock": "lower"}
    assert ab._report("table3_cell", {"a": [a], "b": [b]}, directions) == 1
    capsys.readouterr()
