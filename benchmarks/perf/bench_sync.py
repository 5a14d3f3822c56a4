"""Sync-correlation microbenchmark (the acquisition hot path).

Times :meth:`FskDemodulator.find_sync` on a noisy frame-sized capture,
where the first-lock search correlates only up to the frame's sync word,
and on noise of the same length, where it never locks and so correlates
the whole capture (the worst case).  Also times the whole-capture
correlation kernel on its own: the O(N·M) time-domain ``np.correlate``
the search runs over each row.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.perf.harness import BenchRecord, best_of
from repro.core.encoding import frame_to_msk_bits, wazabee_access_address_bits
from repro.dot15d4.frames import Address, build_data
from repro.dsp.gfsk import (
    FskDemodulator,
    FskModulator,
    GfskConfig,
    sync_template,
)
from repro.dsp.signal import IQSignal

__all__ = ["bench_sync"]

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)

_CONFIG = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=None)
_SYMBOL_RATE = 2e6


def _capture(payload_size: int, snr_margin: float = 0.05, seed: int = 23):
    """A noisy frame capture plus the Access-Address sync template."""
    rng = np.random.default_rng(seed)
    frame = build_data(
        source=_SRC,
        destination=_DST,
        payload=bytes(rng.integers(0, 256, payload_size, dtype=np.uint8)),
        sequence_number=1,
    )
    bits = frame_to_msk_bits(frame.to_bytes())
    modulator = FskModulator(_CONFIG, _SYMBOL_RATE)
    clean = modulator.modulate_direct(bits).samples
    noise = snr_margin * (
        rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
    )
    sig = IQSignal(clean + noise, _SYMBOL_RATE * _CONFIG.samples_per_symbol)
    return sig, wazabee_access_address_bits()


def bench_sync(quick: bool = False) -> List[BenchRecord]:
    payload_size = 20 if quick else 60
    repeats = 3 if quick else 5
    searches = 3 if quick else 20
    demod = FskDemodulator(_CONFIG, _SYMBOL_RATE)
    sig, sync_bits = _capture(payload_size)
    disc = demod.discriminate(sig)
    power = np.abs(sig.samples[:-1]) ** 2
    noise = np.random.default_rng(29).standard_normal((2, sig.samples.size))
    noise_sig = IQSignal(noise[0] + 1j * noise[1], sig.sample_rate)
    noise_disc = demod.discriminate(noise_sig)
    noise_power = np.abs(noise_sig.samples[:-1]) ** 2
    assert demod.find_sync(noise_disc, sync_bits, power=noise_power) is None

    template = sync_template(sync_bits, _CONFIG.samples_per_symbol).centered

    def search(disc=disc, power=power) -> None:
        for _ in range(searches):
            demod.find_sync(disc, sync_bits, power=power)

    def correlate() -> None:
        for _ in range(searches):
            np.correlate(disc, template, "valid")

    auto_s = best_of(search, repeats=repeats)
    noise_s = best_of(lambda: search(noise_disc, noise_power), repeats=repeats)
    direct_s = best_of(correlate, repeats=repeats)
    return [
        BenchRecord(
            name="sync_search",
            metric="searches_per_s",
            value=searches / auto_s,
            repeats=repeats,
            extra={
                "capture_samples": int(disc.size),
                "template_bits": int(np.asarray(sync_bits).size),
                "noise_only_searches_per_s": searches / noise_s,
                "direct_correlations_per_s": searches / direct_s,
            },
        )
    ]
