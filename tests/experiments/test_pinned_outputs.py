"""Exact outputs of the figure, similarity, ablation and scenario runs.

The benches assert the physics of these outputs with tolerances; these
tests pin their exact values, so a refactor of the experiment entry
points (or of the modems they build) must leave every byte alone.
"""

import hashlib

import numpy as np
import pytest

from repro.core.similarity import similarity_matrix
from repro.experiments import ablations
from repro.experiments.ablations import (
    gaussian_bt_sweep,
    modulation_index_sweep,
    whitening_strategy_check,
)
from repro.experiments.figures import (
    fig1_fsk_iq,
    fig2_oqpsk_waveforms,
    fig3_constellation,
    spectral_comparison,
)
from repro.experiments.scenarios import run_scenario_a
from repro.experiments.symmetric import attempt_symmetric_pivot


def series_digest(series) -> str:
    """sha256 over a figure's series: keys, array dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for key in sorted(series):
        value = series[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "figure, digest",
    [
        (fig1_fsk_iq, "c4470f08661192c2deff103d8c76fab209a886439903c788376ee67b1ff4ab9e"),
        (fig2_oqpsk_waveforms, "bd63b96ae9aa6f421d787209382b55e3f37665d50dff026343a5db2b0719a35b"),
        (fig3_constellation, "27cd6428d67148c79f1ae59d6a7ab024bc19c2c99ecf7c9fc34513b7799032bc"),
    ],
    ids=["fig1", "fig2", "fig3"],
)
def test_figure_series(figure, digest):
    assert series_digest(figure()) == digest


def test_spectral_comparison():
    assert spectral_comparison() == {
        "gfsk_obw_hz": 2531250.0,
        "oqpsk_obw_hz": 2375000.0,
        "overlap": 0.997643921218671,
    }


def test_symmetric_pivot():
    result = attempt_symmetric_pivot()
    assert (result.target_bits, result.matched_bits) == (160, 111)
    assert (result.sync_found, result.crc_ok) == (True, False)
    assert result.symbols_used == [13, 11, 12, 1, 9]


def test_similarity_matrix():
    matrix = similarity_matrix(num_bits=256)
    names = list(dict.fromkeys(tx for tx, _rx in matrix))
    rows = [[matrix[(tx, rx)] for rx in names] for tx in names]
    assert rows == [
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.5],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5, 0.5, 0.0, 0.5],
        [0.5, 0.0, 0.5, 0.5, 0.0, 0.0],
    ]


def test_modulation_sweeps(monkeypatch):
    monkeypatch.setattr(ablations, "SWEEP_CHIPS", 1024)
    monkeypatch.setattr(ablations, "BT_VALUES", (0.3, 0.5, 0.7, 1.0, None))
    assert gaussian_bt_sweep() == {
        "BT=0.3": 0.0,
        "BT=0.5": 0.0,
        "BT=0.7": 0.0,
        "BT=1.0": 0.0,
        "MSK": 0.0,
    }
    assert modulation_index_sweep() == {
        0.45: 0.0,
        0.48: 0.0,
        0.5: 0.0,
        0.52: 0.0,
        0.55: 0.0,
    }


def test_whitening_strategy():
    raw, on_air, equal = whitening_strategy_check()
    assert equal
    assert raw.dtype == np.uint8 and raw.size == 832
    assert np.array_equal(on_air, raw)
    assert (
        hashlib.sha256(raw.tobytes()).hexdigest()
        == "05f6f6aaa4b8ba5b3a22ad2e500aa94f1e7284a71e3a872f8bd4bd196429c4f7"
    )


def test_scenario_a_twenty_seconds():
    result = run_scenario_a(duration_s=20.0, seed=7)
    assert (result.events_total, result.events_on_target) == (200, 1)
    assert result.injected_received == 1
    assert result.forged_entries == [48879]
