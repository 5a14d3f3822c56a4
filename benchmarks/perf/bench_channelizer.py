"""Wideband receiver benchmark: the full Table III sweep.

``table3_sweep_wideband`` times the paper-scale deliverable — every
(chip, primitive, channel) cell of Table III decoded from wideband band
captures — against the narrowband single-cell pipeline measured
back-to-back on the same machine.  The ``speedup_vs_sequential`` ratio
is the acceptance number: wall-clock of the narrowband sweep (measured
per-frame cost × channel-frames) over wall-clock of the wideband sweep.
"""

from __future__ import annotations

from typing import List

from benchmarks.perf.harness import BenchRecord, median_ratio, paired_timings

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

    def sweep() -> None:
        run_table3_wideband(**sweep_kwargs)

    narrow_cell()  # warm caches
    run_table3_wideband(frames=2, channels=(11,))  # warm caches / pools
    narrow_runs, sweep_runs = paired_timings(narrow_cell, sweep)
    narrow_ms_per_frame = min(narrow_runs) * 1e3 / narrow_frames
    sweep_s = min(sweep_runs)
    num_channels = len(channels) if channels is not None else 16
    channel_frames = 2 * 2 * num_channels * frames
    ms_per_channel_frame = sweep_s * 1e3 / channel_frames
    records.append(
        BenchRecord(
            name="table3_sweep_wideband",
            metric="ms_per_channel_frame",
            value=ms_per_channel_frame,
            repeats=len(sweep_runs),
            extra={
                "frames": float(frames),
                "channels": float(num_channels),
                "channel_frames": float(channel_frames),
                "sweep_s": sweep_s,
                "narrowband_ms_per_frame": narrow_ms_per_frame,
                "speedup_vs_sequential": median_ratio(
                    [run / narrow_frames for run in narrow_runs],
                    [run / channel_frames for run in sweep_runs],
                ),
            },
        )
    )
    return records
