""":meth:`RfMedium.compose_capture` latency microbenchmark.

Capture composition — superposing every overlapping transmission, the
interferer bursts and the noise floor into one IQ window — runs once per
delivered frame, so its latency multiplies into every simulated
experiment.  The bench stands up the paper's testbed (two WiFi
interferers), puts a frame on the air and times composing its delivery
window: for the reference receiver alone, and as the medium delivers a
transmission, for a stack of 12 receivers composed in one pass into a
pooled block.  Neither is gated.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.perf.harness import BenchRecord, best_of
from repro.chips import Nrf52832, RzUsbStick
from repro.core.tx import WazaBeeTransmitter
from repro.dot15d4.frames import Address, build_data
from repro.experiments.environment import build_testbed
from repro.radio import Transceiver

__all__ = ["bench_compose_capture"]

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)

#: Receivers of one transmission in a fleet campaign (208 nodes, 16 PANs).
STACK_ROWS = 12


def bench_compose_capture(quick: bool = False) -> List[BenchRecord]:
    repeats = 3 if quick else 10
    testbed = build_testbed(seed=3)
    attacker = Nrf52832(
        testbed.medium,
        position=testbed.attacker_position,
        rng=np.random.default_rng(1),
    )
    reference = RzUsbStick(
        testbed.medium,
        position=testbed.reference_position,
        rng=np.random.default_rng(2),
    )
    reference.set_channel(14)
    reference.start_rx(lambda _frame: None)
    tx = WazaBeeTransmitter(attacker)
    tx.configure(14)
    frame = build_data(_SRC, _DST, b"bench-payload", sequence_number=1)
    tx.transmit(frame)
    transmission = testbed.medium._transmissions[-1]
    start = transmission.start_time - testbed.medium.capture_margin_s
    end = transmission.end_time + testbed.medium.capture_margin_s
    radio = reference.transceiver
    window_samples = int(
        round((end - start) * testbed.medium.sample_rate)
    )

    def compose() -> None:
        testbed.medium.compose_capture([radio], start, end)

    latency_s = best_of(compose, repeats=repeats)

    x, y = testbed.reference_position
    stack = [radio] + [
        Transceiver(
            testbed.medium,
            f"bench-rx-{i}",
            position=(x + 0.5 * i, y - 0.5 * i),
            tuned_hz=radio.tuned_hz,
        )
        for i in range(1, STACK_ROWS)
    ]
    pool = testbed.medium.buffer_pool

    def compose_stack() -> None:
        block = pool.acquire((len(stack), window_samples))
        testbed.medium.compose_capture(stack, start, end, out=block)
        pool.release(block)

    stack_s = best_of(compose_stack, repeats=repeats)
    extra = {
        "window_samples": window_samples,
        "interferers": len(testbed.medium.interferers),
    }
    return [
        BenchRecord(
            name="compose_capture_latency",
            metric="ms",
            value=latency_s * 1e3,
            repeats=repeats,
            extra=dict(extra),
        ),
        BenchRecord(
            name="compose_stack_latency",
            metric="ms",
            value=stack_s * 1e3,
            repeats=repeats,
            extra=dict(extra, rows=STACK_ROWS),
        ),
    ]
