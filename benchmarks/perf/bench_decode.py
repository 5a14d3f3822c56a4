"""Decode-throughput microbenchmark (the reception hot path).

Times full-frame despreading — capture bits in, classified frame out —
through the vectorised :meth:`CorrespondenceTable.decode_blocks` path used
by :func:`decode_payload_bits`, against a scalar per-block reference (one
bit-validation and broadcast Hamming search per block in a Python loop,
the original implementation, inlined below).  The ratio between the two
is the headline speedup and is recorded in the report's ``extra`` for
regression tracking.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.perf.harness import BenchRecord, median_ratio, paired_timings
from repro.core.encoding import MSK_STRIDE, frame_to_msk_bits
from repro.core.rx import DecodedFrame, decode_payload_bits
from repro.core.tables import MSK_BITS_PER_SYMBOL, default_table
from repro.dot15d4.frames import Address, build_data
from repro.phy.ieee802154 import Ppdu
from repro.utils.bits import as_bit_array

__all__ = ["bench_decode_throughput", "decode_payload_bits_scalar"]

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)


def decode_payload_bits_scalar(bits: np.ndarray) -> DecodedFrame:
    """The pre-vectorisation decode loop, kept as the timing baseline."""
    from repro.dot15d4.fcs import verify_fcs

    table = default_table()
    arr = np.asarray(bits, dtype=np.uint8)
    num_strides = arr.size // MSK_STRIDE
    symbols: List[int] = []
    distances: List[int] = []
    for k in range(num_strides):
        block = as_bit_array(arr[k * MSK_STRIDE + 1 : (k + 1) * MSK_STRIDE])
        if block.size != MSK_BITS_PER_SYMBOL:
            raise ValueError(f"expected {MSK_BITS_PER_SYMBOL} bits")
        row = np.count_nonzero(table.matrix != block[None, :], axis=1)
        best = int(np.argmin(row))
        symbols.append(best)
        distances.append(int(row[best]))
    sfd_index = Ppdu.find_sfd(symbols, search_limit=12)
    ppdu = Ppdu.parse_symbols(symbols[sfd_index:])
    used = sfd_index + 4 + 2 * len(ppdu.psdu)
    return DecodedFrame(
        psdu=ppdu.psdu,
        fcs_ok=verify_fcs(ppdu.psdu),
        sfd_index=sfd_index,
        symbols=symbols[:used],
        distances=distances[:used],
    )


def _noisy_captures(count: int, payload_size: int, seed: int = 11):
    """Full-frame captures with a sprinkle of chip errors (realistic work:
    non-zero Hamming distances everywhere)."""
    rng = np.random.default_rng(seed)
    captures = []
    for i in range(count):
        frame = build_data(
            source=_SRC,
            destination=_DST,
            payload=bytes(rng.integers(0, 256, payload_size, dtype=np.uint8)),
            sequence_number=i & 0xFF,
        )
        bits = frame_to_msk_bits(frame.to_bytes())[32:]
        flips = (rng.random(bits.size) < 0.01).astype(np.uint8)
        captures.append(bits ^ flips)
    return captures


def bench_decode_throughput(quick: bool = False) -> List[BenchRecord]:
    frames = 20 if quick else 200
    payload_size = 40
    # Each of the enforced ratio's readings is a best of three even in
    # quick mode, and the gate reads their median: a stalled repeat on
    # one side cannot push the ratio through the regression floor.
    repeats = 3
    captures = _noisy_captures(frames, payload_size)

    # Warm-up + cross-check: both paths must agree before we time them.
    for capture in captures[:3]:
        vec = decode_payload_bits(capture)
        ref = decode_payload_bits_scalar(capture)
        assert vec is not None and vec.psdu == ref.psdu
        assert vec.distances == ref.distances

    def run_vectorised() -> None:
        for capture in captures:
            decode_payload_bits(capture)

    def run_scalar() -> None:
        for capture in captures:
            decode_payload_bits_scalar(capture)

    scalar_runs, vec_runs = paired_timings(run_scalar, run_vectorised, repeats)
    vec_s, scalar_s = min(vec_runs), min(scalar_runs)
    speedup = median_ratio(scalar_runs, vec_runs)
    return [
        BenchRecord(
            name="decode_throughput_vectorised",
            metric="frames_per_s",
            value=frames / vec_s,
            repeats=len(vec_runs) * repeats,
            extra={
                "frames": frames,
                "payload_bytes": payload_size,
                "scalar_frames_per_s": frames / scalar_s,
                "speedup_vs_scalar": speedup,
            },
        )
    ]
