"""Data series behind the paper's Figures 1–3.

These functions return plain numpy arrays/dicts so the benches can both
assert the physics and print the series; no plotting dependencies.

* Figure 1 — I/Q-plane behaviour of 2-FSK: a 1-bit rotates the phase
  counter-clockwise, a 0-bit clockwise.
* Figure 2 — temporal decomposition of an O-QPSK signal with half-sine
  pulse shaping: m(t), I(t), Q(t), the two mixed carrier components and the
  sum s(t).
* Figure 3 — the O-QPSK constellation: four states, ±π/2 transitions, even
  bits moving I, odd bits moving Q.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ble.packets import PhyMode
from repro.dsp.gfsk import FskModulator, GfskConfig
from repro.dsp.oqpsk import OqpskModulator
from repro.phy.ble_phy import DEFAULT_SAMPLES_PER_SYMBOL, ble_modulator
from repro.utils.bits import as_bit_array

__all__ = [
    "fig1_fsk_iq",
    "fig2_oqpsk_waveforms",
    "fig3_constellation",
    "spectral_comparison",
]

#: Samples per symbol (chip) of the Figure 1–3 traces: fine enough to draw.
FIGURE_SAMPLES_PER_SYMBOL = 64
#: Carrier cycles per chip of Figure 2's mixed components.
CARRIER_CYCLES_PER_CHIP = 2.0
#: Random bits modulated, and the PSD segment length, of the spectral
#: comparison.
SPECTRAL_BITS = 4096
SPECTRAL_NPERSEG = 512
#: Seeds the spectral comparison's random bit stream.
SPECTRAL_SEED = 0


def fig1_fsk_iq(modulation_index: float = 0.5) -> Dict[str, np.ndarray]:
    """Phase trajectories of a 2-FSK modulator for an isolated 1 and 0.

    Returns unwrapped phase (radians) over one symbol for each bit value;
    Figure 1's claim is ``phase_one`` increasing (counter-clockwise) and
    ``phase_zero`` decreasing (clockwise).
    """
    config = GfskConfig(
        samples_per_symbol=FIGURE_SAMPLES_PER_SYMBOL,
        modulation_index=modulation_index,
        bt=None,
    )
    modulator = FskModulator(config, symbol_rate=2e6)
    out: Dict[str, np.ndarray] = {}
    for label, bit in (("one", 1), ("zero", 0)):
        sig = modulator.modulate([bit])
        out[f"phase_{label}"] = sig.instantaneous_phase()
        out[f"i_{label}"] = sig.samples.real
        out[f"q_{label}"] = sig.samples.imag
    return out


def fig2_oqpsk_waveforms(
    chips=(1, 1, 0, 1, 0, 0, 1, 0),
    samples_per_chip: int = FIGURE_SAMPLES_PER_SYMBOL,
) -> Dict[str, np.ndarray]:
    """The six stacked traces of Figure 2 for a short chip sequence.

    ``m`` is the NRZ modulating signal, ``i``/``q`` the half-sine pulse
    trains, ``i_carrier``/``q_carrier`` the mixed components and ``s`` their
    difference (equation 2), sampled on a common time axis (units of Tc).
    """
    arr = as_bit_array(list(chips))
    modulator = OqpskModulator(samples_per_chip=samples_per_chip, chip_rate=2e6)
    i_wave, q_wave = modulator.pulse_trains(arr)
    n = i_wave.size
    t = np.arange(n) / samples_per_chip
    nrz = arr.astype(float) * 2.0 - 1.0
    m = np.zeros(n)
    for k, level in enumerate(nrz):
        m[k * samples_per_chip : (k + 1) * samples_per_chip] = level
    omega = 2.0 * np.pi * CARRIER_CYCLES_PER_CHIP
    i_carrier = i_wave * np.cos(omega * t)
    q_carrier = q_wave * np.sin(omega * t)
    return {
        "t": t,
        "m": m,
        "i": i_wave,
        "q": q_wave,
        "i_carrier": i_carrier,
        "q_carrier": q_carrier,
        "s": i_carrier - q_carrier,
        "envelope": np.abs(i_wave + 1j * q_wave),
    }


def fig3_constellation(
    chips=(1, 1, 0, 1, 0, 0, 1, 0, 1, 1),
) -> Dict[str, object]:
    """Constellation states and the trajectory for a chip sequence.

    Returns the four constellation points (labelled by the two most recent
    chips), the complex baseband trajectory, and the per-chip phase steps —
    each of which Figure 3 requires to be ±π/2.
    """
    spc = FIGURE_SAMPLES_PER_SYMBOL
    modulator = OqpskModulator(samples_per_chip=spc, chip_rate=2e6)
    sig = modulator.modulate(chips)
    phase = sig.instantaneous_phase()
    # Phase at mid-chip instants (the constellation corners)...
    mids = [(k * spc + spc // 2) for k in range(1, len(chips))]
    mid_phases = np.array([phase[m] for m in mids])
    # ...and the rotation across each full chip period (skipping the edge
    # chips, whose pulses are only half-formed): each must be exactly ±π/2.
    boundaries = np.array([phase[k * spc] for k in range(1, len(chips))])
    steps = np.diff(boundaries)
    states = {
        "11": complex(np.sqrt(0.5), np.sqrt(0.5)),
        "01": complex(-np.sqrt(0.5), np.sqrt(0.5)),
        "00": complex(-np.sqrt(0.5), -np.sqrt(0.5)),
        "10": complex(np.sqrt(0.5), -np.sqrt(0.5)),
    }
    return {
        "states": states,
        "trajectory": sig.samples,
        "mid_phases": mid_phases,
        "phase_steps": steps,
    }


def _occupied_bandwidth(freqs: np.ndarray, psd: np.ndarray, fraction: float) -> float:
    """Width of the symmetric band holding *fraction* of the total power."""
    order = np.argsort(freqs)
    freqs, psd = freqs[order], psd[order]
    total = psd.sum()
    center = int(np.argmin(np.abs(freqs)))
    cumulative = psd[center]
    low = high = center
    while cumulative < fraction * total and (low > 0 or high < psd.size - 1):
        expand_low = psd[low - 1] if low > 0 else -1.0
        expand_high = psd[high + 1] if high < psd.size - 1 else -1.0
        if expand_high >= expand_low:
            high += 1
            cumulative += psd[high]
        else:
            low -= 1
            cumulative += psd[low]
    return float(freqs[high] - freqs[low])


def spectral_comparison() -> Dict[str, float]:
    """Spectral occupancy of the two waveforms (§VII's overlap criterion).

    Modulates the same random bit stream as BLE LE 2M GFSK and (via the
    chip mapping) as 802.15.4 O-QPSK, estimates both PSDs and returns the
    99%-power occupied bandwidths plus the normalised spectral overlap.
    """
    from repro.dsp.msk import transitions_to_chips
    from repro.dsp.signal import IQSignal
    from repro.dsp.spectrum import power_spectral_density

    rng = np.random.default_rng(SPECTRAL_SEED)
    sps = DEFAULT_SAMPLES_PER_SYMBOL
    bits = rng.integers(0, 2, SPECTRAL_BITS).astype(np.uint8)
    gfsk = ble_modulator(PhyMode.LE_2M, sps).modulate(bits)
    chips = transitions_to_chips(bits, start_index=0, previous_chip=0)
    oqpsk = OqpskModulator(samples_per_chip=sps, chip_rate=2e6).modulate(chips)

    freqs_g, psd_g = power_spectral_density(gfsk, nperseg=SPECTRAL_NPERSEG)
    freqs_o, psd_o = power_spectral_density(oqpsk, nperseg=SPECTRAL_NPERSEG)
    # Same sample rate and nperseg → same frequency grid.
    overlap = float(
        np.sum(np.sqrt(psd_g * psd_o))
        / np.sqrt(np.sum(psd_g) * np.sum(psd_o))
    )
    return {
        "gfsk_obw_hz": _occupied_bandwidth(freqs_g, psd_g, 0.99),
        "oqpsk_obw_hz": _occupied_bandwidth(freqs_o, psd_o, 0.99),
        "overlap": overlap,
    }
