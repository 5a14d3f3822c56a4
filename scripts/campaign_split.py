"""Where one fleet campaign's time goes, stage by stage.

Run from the repo root::

    python scripts/campaign_split.py --workload report --seed 3 --repeats 7

Runs one fleetbench workload's campaign in one process (``workers=1``),
once untimed (to warm every cache) and then ``--repeats`` times with
each receive stage's entry point wrapped by name, and prints each
stage's median *self* time in ms (a stage's time less the wrapped
stages inside it).  Unlike
``fleetbench/run.py --trace 1``, which charges the stacked decode to
``sched``, it splits the delivery of a transmission into:

* ``compose`` — ``RfMedium.compose_capture`` (one pass over a
  transmission's stack of receivers) and ``_compose_rows`` around it,
  less the stages below: candidate scans, path gains and the adds;
* ``compose.draws`` — the per-receiver ``standard_normal`` noise draws;
* ``compose.mix`` / ``compose.signal_add`` — mixing a transmission to a
  receiver's tuning, and adding it into the capture;
* ``compose.checkpoint`` — reading (and on roll-back restoring) a
  receiver's noise-stream state;
* ``filter``, ``frontend``, ``lock``, ``slice``, ``despread`` — the
  channel filter, discriminator, sync lock, integrate-and-dump and PN
  match;
* ``tail`` — ``decode_chip_frames`` less its stages: the frame tail and
  the re-arm bookkeeping (every 802.15.4 capture, stacked or delivered
  alone, decodes through it);
* ``hand-out`` — ``RfMedium._hand_out`` and everything it calls that is
  not listed here (receive listener, MAC, Zigbee);
* ``mac.parse`` — ``MacFrame.parse``, once per MAC a frame reaches;
* ``rest`` — the scheduler and every callback outside the above.

Wrapping costs time of its own, so the stages sum to more than an
unwrapped campaign; compare stages with each other, not with
``campaign_ms``.  Nothing is written.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Callable, List

ROOT = Path(__file__).resolve().parents[1]


class _TimedBitGenerator:
    """A bit generator whose ``state`` reads and writes (the roll-back
    checkpoint) are timed."""

    def __init__(self, timed: Callable, inner) -> None:
        self._get = timed("compose.checkpoint", getattr)
        self._set = timed("compose.checkpoint", setattr)
        self._inner = inner

    @property
    def state(self):
        return self._get(self._inner, "state")

    @state.setter
    def state(self, value) -> None:
        self._set(self._inner, "state", value)


class _TimedStream:
    """A receiver's noise stream with its normal draws timed."""

    def __init__(self, timed: Callable, inner) -> None:
        self._inner = inner
        self.bit_generator = _TimedBitGenerator(timed, inner.bit_generator)
        self.standard_normal = timed("compose.draws", inner.standard_normal)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(timed: Callable) -> None:
    """Wrap every stage's entry point with *timed*, for the rest of the
    process."""
    import repro.chips.rzusbstick as rzusbstick
    import repro.phy.batch as batch
    from repro.dot15d4.frames import MacFrame
    from repro.dsp.gfsk import SyncSearch
    from repro.dsp.oqpsk import OqpskDemodulator
    from repro.radio import RfMedium, Scheduler, Transceiver

    targets = [
        (RfMedium, "compose_capture", "compose"),
        (RfMedium, "_compose_rows", "compose"),
        (RfMedium, "_mixed_samples", "compose.mix"),
        (RfMedium, "_hand_out", "hand-out"),
        (Transceiver, "filter_samples", "filter"),
        (OqpskDemodulator, "front_end", "frontend"),
        (SyncSearch, "lock_rows", "lock"),
        (OqpskDemodulator, "receive_chip_rows", "slice"),
        (batch, "despread_chips", "despread"),
        (batch, "decode_chip_frames", "tail"),
        (Scheduler, "run_until", "rest"),
    ]
    for owner, name, stage in targets:
        setattr(owner, name, timed(stage, getattr(owner, name)))
    rzusbstick.decode_chip_frames = batch.decode_chip_frames
    MacFrame.parse = staticmethod(timed("mac.parse", MacFrame.parse))
    RfMedium._add_at = staticmethod(
        timed("compose.signal_add", RfMedium._add_at)
    )
    rx_stream = RfMedium._rx_stream
    streams = {}  # one timed view per generator

    def timed_rx_stream(medium, radio):
        generator = rx_stream(medium, radio)
        view = streams.get(generator)
        if view is None:
            view = streams[generator] = _TimedStream(timed, generator)
        return view

    RfMedium._rx_stream = timed_rx_stream


def main(argv: List[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "fleetbench"))
    from spans import LayerTracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="report", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    tracer = LayerTracer()  # its spans charge self time by stage
    install(tracer._timed)
    # One process: the wrappers time only the calling process, so a
    # campaign fanned out over a pool would lose its other groups' stages.
    workload.run(spec, workers=1)  # warms every cache
    runs = []
    for _ in range(args.repeats):
        tracer.reset()
        workload.run(spec, workers=1)
        runs.append(dict(tracer.self_s))
    stages = sorted({stage for run in runs for stage in run})
    print(f"{args.workload} seed={args.seed}: median self ms over {args.repeats}")
    for stage in stages:
        ms = statistics.median(run.get(stage, 0.0) for run in runs) * 1e3
        print(f"  {stage:20s} {ms:8.1f}")
    total = statistics.median(sum(run.values()) for run in runs) * 1e3
    print(f"  {'(sum)':20s} {total:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
