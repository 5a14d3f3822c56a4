"""The 802.15.4 receive engine: sync → slice → despread → frame tail.

Every 802.15.4 receiver in the stack — the narrowband
:class:`~repro.chips.rzusbstick.Dot15d4Radio`, the wideband sweep and the
differential tests — runs the same four stages, each written once over a
*frames axis*: a stack of equal-length captures ``(F, N)``, of which a
single capture is simply ``F = 1``.  Discrimination and despreading are
array operations over all rows; the sync search, slice and frame tail
visit the rows that need them.  The medium decodes the captures of every
radio that hears one transmission as one such stack, so each stage is
*row-invariant*: a row's result does not depend on the other rows of its
stack (``tests/phy/test_stack_invariance.py``).

* **sync** — :meth:`~repro.dsp.gfsk.SyncSearch.lock_rows` correlates the
  preamble template along each discriminator row only as far as its
  first candidate that clears the RSSI gate, and locks every row onto
  its own in one pass over the stack;
* **slice** — :meth:`~repro.dsp.oqpsk.OqpskDemodulator.receive_chip_rows`
  integrates-and-dumps the rotation decisions after every lock as one
  block and inverts them to chips by prefix XOR;
* **despread** — :func:`~repro.phy.ieee802154.despread_chips` matches all
  32-chip blocks of all rows in one matmul, with per-symbol LLR margins
  (best vs runner-up PN match) next to the hard decisions — the soft
  input codeword-level decisions and FCS salvage build on;
* **frame tail** — :func:`frame_tail`: SFD → PHR → distance gate → FCS,
  also the end of the WazaBee reception primitive
  (:func:`repro.core.rx.decode_payload_bits`).

A row whose lock yields no frame is re-armed one symbol further on, up to
:data:`RESYNC_ATTEMPTS` locks; the re-armed rows lock in one more pass,
reusing the stack's discriminator output and RSSI gate.  The 802.15.4
radio hands the engine single-precision captures, and every stage keeps
their precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.dot15d4.fcs import verify_fcs
from repro.dsp.oqpsk import OqpskDemodulator
from repro.errors import DecodeError
from repro.phy.ieee802154 import (
    CHIPS_PER_SYMBOL,
    MAX_PSDU_SIZE,
    PN_SEQUENCES,
    Ppdu,
    despread_chips,
    symbol_confidences,
)

__all__ = [
    "SYNC_CHIPS",
    "SYNC_START_INDEX",
    "MAX_FRAME_CHIPS",
    "RESYNC_ATTEMPTS",
    "DecodedFrame",
    "frame_tail",
    "BatchDecodedFrame",
    "decode_chip_frames",
]

#: Chip-timing sync pattern: two preamble symbols (the ``0000`` PN sequence
#: twice).  Starting the pattern at stream index 32 keeps parity identical
#: to index 0 while acknowledging the correlator never locks on symbol 0.
SYNC_CHIPS = np.concatenate([PN_SEQUENCES[0], PN_SEQUENCES[0]])
SYNC_START_INDEX = CHIPS_PER_SYMBOL

#: Chips decoded after a lock: the SHR remainder, PHR and a maximum PSDU.
MAX_FRAME_CHIPS = CHIPS_PER_SYMBOL * (10 + 2 * (1 + MAX_PSDU_SIZE))

#: How many times a receiver locks on one capture: the first lock plus the
#: re-arms after locks that produced no frame.
RESYNC_ATTEMPTS = 4


@dataclass
class DecodedFrame:
    """An 802.15.4 frame located in a despread symbol stream.

    ``symbols`` / ``distances`` cover the frame's symbols; ``sfd_index``
    is the SFD's position in the whole stream.
    """

    psdu: bytes
    fcs_ok: bool
    sfd_index: int
    symbols: List[int] = field(default_factory=list)
    distances: List[int] = field(default_factory=list)

    @property
    def mean_distance(self) -> float:
        """Average Hamming distance of the matched blocks (decode quality)."""
        if not self.distances:
            return 0.0
        return sum(self.distances) / len(self.distances)

    @property
    def confidences(self) -> List[float]:
        """Per-symbol decode confidence in [0, 1].

        A perfect match (distance 0) scores 1.0, the worst credible match
        (distance 15, half the minimum inter-sequence distance away from
        everything) scores ~0.5.  The FCS-failed salvage path uses these to
        point at the corrupted region of a frame; the mapping is
        :func:`repro.phy.ieee802154.symbol_confidences`.
        """
        return symbol_confidences(self.distances)


def frame_tail(
    symbols: Sequence[int],
    distances: Sequence[int],
    max_mean_distance: Optional[float] = None,
    search_limit: int = 16,
    include_preamble: bool = False,
) -> DecodedFrame:
    """SFD → PHR → distance gate → FCS over one despread symbol stream.

    Looks for the SFD among the first *search_limit* symbols and reads the
    PHR-delimited PSDU after it.  The frame covers its symbols from the SFD
    on, or from the start of the stream with *include_preamble*.  With
    *max_mean_distance* set, a frame whose mean block distance exceeds it
    is rejected as noise that happened to correlate.

    Raises :class:`~repro.errors.DecodeError` with reason ``no-sfd``,
    ``truncated`` or ``low-confidence``.
    """
    sfd_index = Ppdu.find_sfd(symbols, search_limit=search_limit)
    if sfd_index is None:
        raise DecodeError("no-sfd")
    ppdu = Ppdu.parse_symbols(symbols[sfd_index:])
    if ppdu is None:
        raise DecodeError("truncated")
    stop = sfd_index + 4 + 2 * len(ppdu.psdu)
    frame = slice(0 if include_preamble else sfd_index, stop)
    decoded = DecodedFrame(
        psdu=ppdu.psdu,
        fcs_ok=verify_fcs(ppdu.psdu),
        sfd_index=sfd_index,
        symbols=list(symbols[frame]),
        distances=list(distances[frame]),
    )
    mean_distance = decoded.mean_distance
    if max_mean_distance is not None and mean_distance > max_mean_distance:
        raise DecodeError("low-confidence", mean_distance=mean_distance)
    return decoded


@dataclass
class BatchDecodedFrame(DecodedFrame):
    """A :class:`DecodedFrame` from :func:`decode_chip_frames`: adds the
    sync lock and the per-symbol soft output."""

    sync_start: int = 0
    sync_score: float = 0.0
    chip_index: int = 0
    #: Per-symbol LLR: Hamming margin between best and runner-up PN match.
    llrs: List[int] = field(default_factory=list)


def decode_chip_frames(
    captures: np.ndarray,
    samples_per_chip: int,
    chip_rate: float = 2e6,
    sync_threshold: float = 0.45,
    max_chip_distance: int = 12,
) -> List[Optional[BatchDecodedFrame]]:
    """Decode a stack of equal-length baseband captures in one pass.

    *captures* is ``(F, N)`` complex — already tuned and channel-filtered
    basebands (one channelizer output per frame slot, or the captures of
    one transmission's receivers).  Each row is
    taken through the full 802.15.4-over-MSK receive chain with every
    stage batched along the frames axis.  Rows whose lock yields no frame
    are re-armed, up to :data:`RESYNC_ATTEMPTS` locks per row.  A row
    shorter than the sync template never locks.  Returns one frame (or
    ``None``) per row.
    """
    captures = np.atleast_2d(np.asarray(captures))
    spc = samples_per_chip
    demod = OqpskDemodulator(spc, chip_rate)
    front = demod.front_end(captures)
    frames: List[Optional[BatchDecodedFrame]] = [None] * captures.shape[0]
    search_start = [0] * captures.shape[0]
    active = list(range(captures.shape[0]))
    for _attempt in range(RESYNC_ATTEMPTS):
        if not active:
            break
        found = demod.receive_chip_rows(
            front,
            active,
            [search_start[row] for row in active],
            SYNC_CHIPS,
            SYNC_START_INDEX,
            MAX_FRAME_CHIPS,
            sync_threshold,
        )
        symbols, distances, llrs = despread_chips(found.chips)
        active = []
        for i, (row, sync, count) in enumerate(
            zip(found.rows, found.syncs, found.counts)
        ):
            if not count:
                continue  # the pattern ends the capture: nothing to re-arm
            n = count // CHIPS_PER_SYMBOL
            try:
                frame = frame_tail(
                    symbols[i, :n].tolist(),
                    distances[i, :n].tolist(),
                    max_mean_distance=max_chip_distance or None,
                )
            except DecodeError:
                # Re-arm one symbol past the failed lock.
                search_start[row] = sync.start + CHIPS_PER_SYMBOL * spc
                active.append(row)
                continue
            stop = frame.sfd_index + len(frame.symbols)
            frames[row] = BatchDecodedFrame(
                psdu=frame.psdu,
                fcs_ok=frame.fcs_ok,
                sfd_index=frame.sfd_index,
                symbols=frame.symbols,
                distances=frame.distances,
                sync_start=sync.start,
                sync_score=sync.score,
                chip_index=found.chip_index,
                llrs=llrs[i, frame.sfd_index : stop].tolist(),
            )
    return frames
