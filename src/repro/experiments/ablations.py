"""Ablation studies over WazaBee's design choices (DESIGN.md §5).

Each function isolates one knob the paper discusses:

* :func:`gaussian_bt_sweep` — how much error the GMSK≈MSK approximation
  (§IV-B1: "if we neglect the effect of the Gaussian filter") actually
  introduces, as a function of the BT product.
* :func:`modulation_index_sweep` — BLE tolerates h ∈ [0.45, 0.55]; the MSK
  equivalence is exact only at h = 0.5.
* :func:`hamming_threshold_sweep` — decoding robustness vs the maximum
  accepted Hamming distance under synthetic chip-error rates (§IV-D's
  rationale for Hamming-distance despreading).
* :func:`esb_fallback_comparison` — LE 2M vs the nRF51822's Enhanced
  ShockBurst fallback ("a direct impact on the reception quality", §VI-C).
* :func:`whitening_strategy_check` — disabling whitening vs pre-inverting
  it must produce identical on-air bits (§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ble.packets import PhyMode
from repro.ble.whitening import whiten
from repro.core.encoding import frame_to_msk_bits
from repro.core.tables import default_table
from repro.dot15d4.frames import Address, build_data
from repro.dsp.gfsk import FskModulator, GfskConfig
from repro.dsp.msk import chips_to_transitions, transitions_to_chips
from repro.experiments.environment import build_bench
from repro.experiments.table3 import ChannelResult
from repro.phy.ble_phy import ble_demodulator

__all__ = [
    "gaussian_bt_sweep",
    "modulation_index_sweep",
    "hamming_threshold_sweep",
    "esb_fallback_comparison",
    "whitening_strategy_check",
]

#: The Zigbee channel of the bench ablations (the §VI-A network's).
ABLATION_CHANNEL = 14
#: The frame the whitening check encodes.
WHITENING_PSDU = b"\x01\x02\x03\x04\x05\x06\x07"
#: Seeds the random chips of the BT and modulation-index sweeps and the
#: chip flips of the Hamming sweep.
SWEEP_SEED = 0
#: The BT products of the Gaussian sweep (``None``: unfiltered MSK).
BT_VALUES: Tuple[Optional[float], ...] = (0.3, 0.5, 1.0, None)
#: The modulation indices of the sweep, across BLE's [0.45, 0.55] window.
H_VALUES = (0.45, 0.48, 0.5, 0.52, 0.55)
#: Random chips per point of the BT and modulation-index sweeps.
SWEEP_CHIPS = 8192
#: The synthetic chip error rates of the Hamming sweep.
CHIP_ERROR_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)
#: Random symbols decoded per chip error rate.
HAMMING_TRIALS = 3000
#: Frames per radio of the ESB fallback comparison, and its bench seed.
FALLBACK_FRAMES = 40
FALLBACK_SEED = 3
#: Frames per data rate of the data-rate requirement check, and its
#: bench seed.
DATA_RATE_FRAMES = 10
DATA_RATE_SEED = 2


def _chip_error_rate(bt: Optional[float], modulation_index: float) -> float:
    """Chip error rate of GFSK TX → ideal MSK RX, no channel noise."""
    rng = np.random.default_rng(SWEEP_SEED)
    chips = rng.integers(0, 2, SWEEP_CHIPS).astype(np.uint8)
    transitions = chips_to_transitions(chips, previous_chip=0)
    modulator = FskModulator(
        GfskConfig(samples_per_symbol=8, modulation_index=modulation_index, bt=bt),
        symbol_rate=2e6,
    )
    demodulator = ble_demodulator(PhyMode.LE_2M, 8)
    sig = modulator.modulate(transitions)
    disc = demodulator.discriminate(sig)
    sync = demodulator.find_sync(disc, transitions[:64], threshold=0.3)
    if sync is None:
        return 1.0
    bits = demodulator.decide_bits(
        disc,
        sync.start,
        min(transitions.size, demodulator.available_bits(disc, sync.start)),
        dc=sync.dc_offset / demodulator.frequency_deviation,
    )
    recovered = transitions_to_chips(bits, start_index=0, previous_chip=0)
    n = recovered.size
    return float(np.count_nonzero(recovered != chips[:n]) / n)


def gaussian_bt_sweep() -> Dict[str, float]:
    """Chip error rate vs Gaussian BT (``None`` = unfiltered MSK)."""
    return {
        ("MSK" if bt is None else f"BT={bt}"): _chip_error_rate(bt, 0.5)
        for bt in BT_VALUES
    }


def modulation_index_sweep() -> Dict[float, float]:
    """Chip error rate vs modulation index at BT = 0.5."""
    return {h: _chip_error_rate(0.5, h) for h in H_VALUES}


def hamming_threshold_sweep() -> Dict[float, float]:
    """Symbol decode accuracy vs synthetic chip error rate.

    Flips each of the 31 MSK bits of a random symbol independently and asks
    the correspondence table for the nearest symbol; reports the fraction
    decoded correctly.  Shows why minimum-distance despreading (rather than
    exact matching) is load-bearing.
    """
    table = default_table()
    trials = HAMMING_TRIALS
    rng = np.random.default_rng(SWEEP_SEED)
    results: Dict[float, float] = {}
    for rate in CHIP_ERROR_RATES:
        symbols = np.empty(trials, dtype=np.int64)
        blocks = np.empty((trials, table.matrix.shape[1]), dtype=np.uint8)
        for i in range(trials):
            symbols[i] = rng.integers(0, 16)
            flips = rng.random(blocks.shape[1]) < rate
            blocks[i] = table.msk_sequence(symbols[i]) ^ flips
        decoded, _distances = table.decode_blocks(blocks)
        results[rate] = int(np.count_nonzero(decoded == symbols)) / trials
    return results


@dataclass
class FallbackComparison:
    """LE 2M vs ESB fallback reception quality."""

    le2m_valid_rate: float
    esb_valid_rate: float
    frames: int


def esb_fallback_comparison() -> FallbackComparison:
    """Reception success of nRF52832 (LE 2M) vs nRF51822 (ESB fallback)."""
    from repro.chips import Nrf51822, Nrf52832

    frames = FALLBACK_FRAMES
    src = Address(pan_id=0x1234, address=1)
    dst = Address(pan_id=0x1234, address=2)
    rates = {}
    for label, factory in (("le2m", Nrf52832), ("esb", Nrf51822)):
        bench = build_bench(factory, "rx", ABLATION_CHANNEL, seed=FALLBACK_SEED)
        cell = ChannelResult(channel=ABLATION_CHANNEL)
        for i in range(frames):
            frame = build_data(
                src, dst, bytes([0x42, i & 0xFF]), sequence_number=i & 0xFF
            )
            cell.tally(bench.slot(frame), frame.to_bytes())
        rates[label] = cell.valid_rate
    return FallbackComparison(
        le2m_valid_rate=rates["le2m"], esb_valid_rate=rates["esb"], frames=frames
    )


def whitening_strategy_check(
    channel_index: int = 8,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Disabled whitening vs pre-inversion: identical on-air bits?

    Returns ``(bits_disabled, bits_pre_inverted_then_whitened, equal)``.
    """
    raw = frame_to_msk_bits(WHITENING_PSDU)
    pre_inverted = whiten(raw, channel_index)
    on_air = whiten(pre_inverted, channel_index)
    return raw, on_air, bool(np.array_equal(raw, on_air))


@dataclass
class DataRateCheck:
    """Outcome of the §IV-D requirement-1 experiment."""

    le2m_received: int
    le1m_received: int
    frames: int


def data_rate_requirement_check() -> DataRateCheck:
    """§IV-D requirement 1: the 2 Mbit/s data rate is load-bearing.

    Transmits WazaBee frames from an LE 2M radio and from an LE 1M radio
    (same bits, half the symbol rate); the 802.15.4 receiver only accepts
    the former — at 1 Mbit/s every chip period is stretched to 2·Tc and the
    chip clock never matches.
    """
    from repro.chips import Nrf52832

    frames = DATA_RATE_FRAMES
    src = Address(pan_id=0x1234, address=1)
    dst = Address(pan_id=0x1234, address=2)
    results = {}
    for label, use_2m in (("le2m", True), ("le1m", False)):
        bench = build_bench(Nrf52832, "tx", ABLATION_CHANNEL, seed=DATA_RATE_SEED)
        if not use_2m:
            bench.chip.set_data_rate_1m()  # violate the requirement
        cell = ChannelResult(channel=ABLATION_CHANNEL)
        for i in range(frames):
            frame = build_data(
                src, dst, bytes([i & 0xFF]), sequence_number=i & 0xFF
            )
            cell.tally(bench.slot(frame), frame.to_bytes())
        results[label] = cell.valid
    return DataRateCheck(
        le2m_received=results["le2m"],
        le1m_received=results["le1m"],
        frames=frames,
    )
