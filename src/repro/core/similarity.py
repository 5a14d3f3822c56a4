"""Modulation similarity metric (the paper's §VIII future work).

    "We plan to further investigate the similarities between different
    existing modulation techniques that could be exploited to perform
    WazaBee like attacks.  Defining a metric to measure such similarities
    could be useful..."

The metric implemented here is *cross-demodulation bit error rate*: scheme
A's modulator transmits a random "rotation bit" stream; scheme B's matched
receiver (quadrature discriminator at B's own symbol rate and deviation)
tries to recover it.  A pivot from a B-chip towards protocol A is viable
exactly when that BER is small enough for A's link-layer redundancy to
absorb — for 802.15.4's DSSS, roughly ≲ 15%.

Each scheme is described by its FM-domain parameters; O-QPSK with half-sine
shaping participates through its exact MSK equivalence (its "air bits" are
the per-chip rotation directions, and its transmitter maps them back to
chips before modulating).  Frequency-domain schemes that simply do not
overlap in symbol rate fail to synchronise at all and score BER 0.5 —
"the two protocols are by design vulnerable to pivoting techniques" only
*if* "the modulations are similar enough" (§VII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dsp.gfsk import FskDemodulator, FskModulator, GfskConfig
from repro.dsp.msk import transitions_to_chips
from repro.dsp.oqpsk import OqpskModulator
from repro.dsp.signal import IQSignal

__all__ = [
    "ModulationScheme",
    "REFERENCE_SCHEMES",
    "cross_demodulation_ber",
    "similarity_matrix",
    "viable_pivots",
]

#: Shared simulation sample rate (must be a multiple of every symbol rate).
SAMPLE_RATE = 16e6
#: The pivot-viability bar: the largest BER 802.15.4's DSSS absorbs.
VIABLE_BER = 0.15
#: Seeds the payload (and the AWGN) of every cross-demodulation.
SIMILARITY_SEED = 0
#: Sync prefix used for timing acquisition in the metric.
_SYNC = np.array([0, 1, 1, 0, 1, 0, 0, 1] * 6, dtype=np.uint8)


@dataclass(frozen=True)
class ModulationScheme:
    """An FM-family physical layer, as seen by a quadrature discriminator.

    ``kind`` selects the transmitter: ``"fsk"`` modulates the air bits
    directly (plain/Gaussian FSK); ``"oqpsk"`` converts them to chips and
    uses the half-sine O-QPSK modulator (exercising the actual 802.15.4
    waveform rather than its MSK idealisation).
    """

    name: str
    symbol_rate: float
    modulation_index: float = 0.5
    bt: Optional[float] = None
    kind: str = "fsk"

    def samples_per_symbol(self) -> int:
        sps = SAMPLE_RATE / self.symbol_rate
        if abs(sps - round(sps)) > 1e-9:
            raise ValueError(f"{self.name}: symbol rate must divide {SAMPLE_RATE}")
        return int(round(sps))

    def modulate(self, air_bits: np.ndarray) -> IQSignal:
        if self.kind == "oqpsk":
            chips = transitions_to_chips(air_bits, start_index=0, previous_chip=0)
            return OqpskModulator(
                samples_per_chip=self.samples_per_symbol(),
                chip_rate=self.symbol_rate,
            ).modulate(chips)
        config = GfskConfig(
            samples_per_symbol=self.samples_per_symbol(),
            modulation_index=self.modulation_index,
            bt=self.bt,
        )
        return FskModulator(config, self.symbol_rate).modulate(air_bits)

    def demodulator(self) -> FskDemodulator:
        config = GfskConfig(
            samples_per_symbol=self.samples_per_symbol(),
            modulation_index=self.modulation_index,
            bt=None,
        )
        return FskDemodulator(config, self.symbol_rate)


#: The 2.4 GHz schemes the paper's discussion ranges over.
REFERENCE_SCHEMES: Tuple[ModulationScheme, ...] = (
    ModulationScheme("BLE LE 2M (GFSK h=0.5 BT=0.5)", 2e6, 0.5, 0.5),
    ModulationScheme("BLE LE 1M (GFSK h=0.5 BT=0.5)", 1e6, 0.5, 0.5),
    ModulationScheme("802.15.4 O-QPSK half-sine (2 Mchip/s)", 2e6, 0.5, None, "oqpsk"),
    ModulationScheme("MSK 2 Mbit/s", 2e6, 0.5, None),
    ModulationScheme("Classic BT BR (GFSK h=0.32 BT=0.5)", 1e6, 0.32, 0.5),
    ModulationScheme("Proprietary 2-FSK h=1.0 (1 Mbit/s)", 1e6, 1.0, None),
)


def cross_demodulation_ber(
    tx: ModulationScheme,
    rx: ModulationScheme,
    num_bits: int = 2048,
    snr_db: Optional[float] = None,
) -> float:
    """BER of *rx*'s receiver reading *tx*'s waveform.

    0.5 means "no pivot" (the receiver cannot even synchronise); values
    under ~0.15 mean the pivot survives typical link-layer redundancy.
    With *snr_db* set, AWGN is added so that deviation mismatches (e.g. a
    classic-Bluetooth h=0.32 emission read by an h=0.5 receiver) cost
    measurable margin instead of hiding behind noiseless sign decisions.
    """
    rng = np.random.default_rng(SIMILARITY_SEED)
    payload = rng.integers(0, 2, num_bits).astype(np.uint8)
    air_bits = np.concatenate([_SYNC, payload])
    sig = tx.modulate(air_bits)
    if snr_db is not None:
        from repro.dsp.filters import apply_filter, fir_lowpass
        from repro.dsp.impairments import awgn

        sig = awgn(sig, snr_db, rng)
        # The receiver's channel-selection filter: without it, wideband
        # noise would saturate the discriminator of narrow (low-rate)
        # schemes and the comparison would be unfair to them.
        taps = fir_lowpass(0.75 * rx.symbol_rate, SAMPLE_RATE, num_taps=65)
        sig = IQSignal(
            apply_filter(taps, sig.samples), sig.sample_rate, sig.center_frequency
        )
    demod = rx.demodulator()
    disc = demod.discriminate(sig)
    sync = demod.find_sync(disc, _SYNC, threshold=0.5)
    if sync is None:
        return 0.5
    start = sync.start + _SYNC.size * rx.samples_per_symbol()
    available = demod.available_bits(disc, start)
    count = min(num_bits, available)
    if count < num_bits // 2:
        return 0.5
    bits = demod.decide_bits(
        disc, start, count, dc=sync.dc_offset / demod.frequency_deviation
    )
    return float(np.count_nonzero(bits != payload[:count]) / count)


def similarity_matrix(
    num_bits: int = 2048, snr_db: Optional[float] = None
) -> Dict[Tuple[str, str], float]:
    """Pairwise cross-demodulation BER over :data:`REFERENCE_SCHEMES`."""
    matrix: Dict[Tuple[str, str], float] = {}
    for tx in REFERENCE_SCHEMES:
        for rx in REFERENCE_SCHEMES:
            matrix[(tx.name, rx.name)] = cross_demodulation_ber(
                tx, rx, num_bits=num_bits, snr_db=snr_db
            )
    return matrix


def viable_pivots(
    matrix: Dict[Tuple[str, str], float]
) -> List[Tuple[str, str, float]]:
    """Cross-protocol pairs whose BER clears :data:`VIABLE_BER`."""
    return sorted(
        (tx, rx, ber)
        for (tx, rx), ber in matrix.items()
        if tx != rx and ber <= VIABLE_BER
    )
