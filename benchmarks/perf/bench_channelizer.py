"""Wideband receiver benchmark: the full Table III sweep.

``table3_sweep_wideband`` times the paper-scale deliverable — every
(chip, primitive, channel) cell of Table III decoded from wideband band
captures — against the narrowband single-cell pipeline measured
back-to-back on the same machine.  The ``speedup_vs_sequential`` ratio
is the acceptance number: wall-clock of the narrowband sweep (measured
per-frame cost × channel-frames) over wall-clock of the wideband sweep.
"""

from __future__ import annotations

import time
from typing import List

from benchmarks.perf.harness import BenchRecord, best_of

__all__ = ["bench_channelizer"]


def bench_channelizer(quick: bool = False) -> List[BenchRecord]:
    from repro.experiments.table3 import run_table3_cell, run_table3_wideband

    records: List[BenchRecord] = []
    frames = 10 if quick else 100
    channels = (11, 18, 26) if quick else None
    narrow_frames = 5 if quick else 25
    sweep_kwargs = {"frames": frames}
    if channels is not None:
        sweep_kwargs["channels"] = channels

    # Narrowband reference, measured on this machine right now — the
    # ratio must not track runner hardware (see harness docstring).
    def narrow_cell() -> None:
        run_table3_cell(
            "nRF52832", "rx", channel=14, frames=narrow_frames, seed=1
        )

    narrow_s = best_of(narrow_cell, repeats=3)
    narrow_ms_per_frame = narrow_s * 1e3 / narrow_frames

    run_table3_wideband(frames=2, channels=(11,))  # warm caches / pools
    sweep_repeats = 3
    timings = []
    for _ in range(sweep_repeats):
        start = time.perf_counter()
        run_table3_wideband(**sweep_kwargs)
        timings.append(time.perf_counter() - start)
    sweep_s = min(timings)
    num_channels = len(channels) if channels is not None else 16
    channel_frames = 2 * 2 * num_channels * frames
    ms_per_channel_frame = sweep_s * 1e3 / channel_frames
    records.append(
        BenchRecord(
            name="table3_sweep_wideband",
            metric="ms_per_channel_frame",
            value=ms_per_channel_frame,
            repeats=sweep_repeats,
            extra={
                "frames": float(frames),
                "channels": float(num_channels),
                "channel_frames": float(channel_frames),
                "sweep_s": sweep_s,
                "narrowband_ms_per_frame": narrow_ms_per_frame,
                "speedup_vs_sequential": narrow_ms_per_frame
                / ms_per_channel_frame,
            },
        )
    )
    return records
