"""The sequential 802.15.4 decode: the reference for the stacked engine.

:func:`repro.phy.batch.decode_chip_frames` decodes a stack of captures
``(F, N)`` and re-arms the rows whose lock yields no frame together.
Before it was the only decode, ``Dot15d4Radio._on_capture`` ran its own
copy of that loop on one capture at a time: a front end, then up to
:data:`~repro.phy.batch.RESYNC_ATTEMPTS` calls of
:meth:`~repro.dsp.oqpsk.OqpskDemodulator.receive_chips`, each despread
and frame-tailed on its own.  :func:`decode_oracle` is that loop,
unchanged but for returning the frame it found (with the lock and the
per-symbol LLRs the stacked engine reports) instead of handing it on.
:func:`sequential_on_capture` is the radio's old one-row handler around
it, for :func:`tests.radio.delivery_oracle.per_delivery`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.dsp.oqpsk import ChipSyncResult, oqpsk_modems
from repro.dsp.signal import IQSignal
from repro.errors import DecodeError
from repro.phy.batch import (
    MAX_CHIP_DISTANCE,
    MAX_FRAME_CHIPS,
    RESYNC_ATTEMPTS,
    SYNC_CHIPS,
    SYNC_START_INDEX,
    SYNC_THRESHOLD,
    BatchDecodedFrame,
    frame_tail,
)
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, despread_chips

__all__ = ["decode_oracle", "sequential_on_capture", "symbol_confidences"]


def symbol_confidences(distances: Sequence[int]) -> List[float]:
    """Per-symbol decode confidence in [0, 1] from Hamming distances.

    A perfect match (distance 0) scores 1.0; the worst credible match,
    distance 15 (half the minimum pairwise separation of the sequences
    away from everything), scores ~0.5.  The tests read a decoded frame's
    ``distances`` through it.
    """
    return [1.0 - float(d) / 31.0 for d in distances]


def decode_oracle(
    capture: Union[IQSignal, np.ndarray], samples_per_chip: int
) -> Optional[BatchDecodedFrame]:
    """Decode one filtered capture by locking, then re-arming, in turn."""
    if not isinstance(capture, IQSignal):
        capture = IQSignal(capture, samples_per_chip * 2e6)
    demodulator = oqpsk_modems(samples_per_chip)[1]
    # The front end runs once; each lock that yields no frame re-arms the
    # correlator one symbol further on.
    front_end = demodulator.front_end(capture)
    search_start = 0
    for _attempt in range(RESYNC_ATTEMPTS):
        found = demodulator.receive_chip_rows(
            front_end,
            [0],
            [search_start],
            SYNC_CHIPS,
            SYNC_START_INDEX,
            MAX_FRAME_CHIPS,
            SYNC_THRESHOLD,
        )
        if not found.rows or not found.counts[0]:
            return None
        chips = found.chips[0, : found.counts[0]]
        info = ChipSyncResult(found.chip_index, found.syncs[0])
        frame = _decode_chips(chips, info)
        if frame is not None:
            return frame
        search_start = (
            info.sync.start + CHIPS_PER_SYMBOL * demodulator.samples_per_chip
        )
    return None


def _decode_chips(chips: np.ndarray, info) -> Optional[BatchDecodedFrame]:
    """Despread and frame-tail one chip stream."""
    symbols, distances, llrs = despread_chips(chips)
    try:
        frame = frame_tail(
            symbols.tolist(),
            distances.tolist(),
            max_mean_distance=MAX_CHIP_DISTANCE,
        )
    except DecodeError:
        return None
    stop = frame.sfd_index + len(frame.symbols)
    return BatchDecodedFrame(
        psdu=frame.psdu,
        fcs_ok=frame.fcs_ok,
        sfd_index=frame.sfd_index,
        symbols=frame.symbols,
        distances=frame.distances,
        sync_start=info.sync.start,
        sync_score=info.sync.score,
        chip_index=info.chip_index,
        llrs=llrs[frame.sfd_index : stop].tolist(),
    )


def sequential_on_capture(radio, capture: IQSignal, _tx) -> None:
    """``Dot15d4Radio._on_capture`` decoding through :func:`decode_oracle`."""
    if not radio._powered_rx(capture.duration):
        return
    frame = decode_oracle(capture, radio._demodulator.samples_per_chip)
    if frame is not None:
        radio._handler(radio._received(frame))
