"""Waveform-synthesis microbenchmark (the transmission hot path).

Times GFSK modulation of a full WazaBee frame's MSK bit stream through
the phase-stitched :class:`WaveformCache` against the direct
convolve→cumsum→``exp`` reference (:meth:`FskModulator.modulate_direct`,
the pre-PR5 implementation).  The cached/direct ratio is the PR's
headline speedup and lands in ``extra`` for regression tracking.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.perf.harness import BenchRecord, median_ratio, paired_timings
from repro.core.encoding import frame_to_msk_bits
from repro.dot15d4.frames import Address, build_data
from repro.dsp.gfsk import FskModulator, GfskConfig, WaveformCache

__all__ = ["bench_modulate"]

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)

#: The WazaBee TX modem: 2 Mbit/s GFSK at the default medium rate (16 MHz).
_CONFIG = GfskConfig(samples_per_symbol=8, modulation_index=0.5, bt=0.5)
_SYMBOL_RATE = 2e6


def _frame_bits(count: int, payload_size: int, seed: int = 17):
    rng = np.random.default_rng(seed)
    streams = []
    for i in range(count):
        frame = build_data(
            source=_SRC,
            destination=_DST,
            payload=bytes(rng.integers(0, 256, payload_size, dtype=np.uint8)),
            sequence_number=i & 0xFF,
        )
        streams.append(frame_to_msk_bits(frame.to_bytes()))
    return streams


def bench_modulate(quick: bool = False) -> List[BenchRecord]:
    frames = 5 if quick else 50
    payload_size = 40
    # Quick-size runs time only a few ms per side: each of the ratio's
    # readings is a best of three, and the gate reads their median.
    repeats = 3
    streams = _frame_bits(frames, payload_size)
    cache = WaveformCache(_CONFIG, _SYMBOL_RATE)
    direct = FskModulator(_CONFIG, _SYMBOL_RATE, use_cache=False)

    # Warm-up + cross-check: both paths must agree before we time them.
    for bits in streams[:2]:
        fast = cache.synthesize(bits)
        ref = direct.modulate_direct(bits).samples
        assert np.max(np.abs(fast - ref)) <= 1e-9

    def run_cached() -> None:
        for bits in streams:
            cache.synthesize(bits)

    def run_direct() -> None:
        for bits in streams:
            direct.modulate_direct(bits)

    direct_runs, cached_runs = paired_timings(run_direct, run_cached, repeats)
    cached_s, direct_s = min(cached_runs), min(direct_runs)
    speedup = median_ratio(direct_runs, cached_runs)
    return [
        BenchRecord(
            name="modulate_cached",
            metric="frames_per_s",
            value=frames / cached_s,
            repeats=len(cached_runs) * repeats,
            extra={
                "frames": frames,
                "payload_bytes": payload_size,
                "bits_per_frame": int(streams[0].size),
                "direct_frames_per_s": frames / direct_s,
                "speedup_vs_direct": speedup,
            },
        )
    ]
