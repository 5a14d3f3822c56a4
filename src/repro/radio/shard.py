"""Spatially partitioned, interest-managed RF medium.

:class:`ShardedRfMedium` implements exactly the semantics of a dense
:class:`~repro.radio.medium.RfMedium` with a finite ``range_cutoff_m``, but
replaces its O(radios) delivery scan and O(transmissions) composition scan
with interest sets maintained on a 2D cell grid:

* every attached radio lives in one grid cell (cell edge = range cutoff),
  sub-indexed by the 1 MHz bucket of its tuning, so a transmission only
  visits the co-channel radios of the 3x3 cell neighbourhood around its
  origin;
* every in-flight transmission is indexed by its *origin* cell, so the
  captures of a stack of receivers compose against the 3x3
  neighbourhoods around their current positions instead of the whole
  superposition list.

Equivalence contract: for identical seeds and workloads, a sharded medium
and a dense medium with the same ``range_cutoff_m`` produce byte-identical
captures and an identical scheduler event sequence.  The grid only narrows
*candidate* enumeration; the exact listening/in-band/in-range predicates,
the attach-order delivery scan, and the identifier-order float summation
are inherited unchanged from the dense implementation.  The differential
harness in ``tests/radio/test_shard_differential.py`` holds this contract
to the letter.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set, Tuple

from repro.radio.medium import BufferPool, RfMedium, Transmission

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.transceiver import Transceiver

__all__ = ["BufferPool", "CellGrid", "ShardedRfMedium"]

Cell = Tuple[int, int]

#: Width of one tuning interest bucket.  1 MHz is fine-grained enough that a
#: Zigbee channel plan (5 MHz spacing) lands adjacent PANs in disjoint
#: bucket ranges, and coarse enough that the bucket arithmetic stays integer.
BUCKET_HZ = 1e6


class CellGrid:
    """A sparse 2D grid of square cells keyed by ``floor(coord / size)``.

    With cell edge >= interaction range, everything within range of a point
    lies inside the 3x3 block of cells around the point's own cell — the
    single geometric fact the sharded medium rests on.
    """

    def __init__(self, cell_size_m: float):
        if cell_size_m <= 0.0:
            raise ValueError("cell_size_m must be positive")
        self.cell_size_m = cell_size_m

    def cell_of(self, position: Tuple[float, float]) -> Cell:
        return (
            int(math.floor(position[0] / self.cell_size_m)),
            int(math.floor(position[1] / self.cell_size_m)),
        )

    def neighborhood(self, cell: Cell) -> Iterable[Cell]:
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                yield (cx + dx, cy + dy)


def _bucket_of(tuned_hz: float) -> int:
    return int(tuned_hz // BUCKET_HZ)


class ShardedRfMedium(RfMedium):
    """Interest-managed medium for fleet-scale topologies.

    Requires a finite ``range_cutoff_m`` (the interaction radius doubles as
    the grid cell size).  See the module docstring for the equivalence
    contract with the dense reference implementation.
    """

    def __init__(self, *args, **kwargs):
        if kwargs.get("range_cutoff_m") is None:
            raise ValueError(
                "ShardedRfMedium requires a finite range_cutoff_m; "
                "use RfMedium for an unbounded medium"
            )
        super().__init__(*args, **kwargs)
        self.grid = CellGrid(self.range_cutoff_m)
        # radio -> (cell, bucket) as currently indexed; radio -> global
        # attach sequence number (the delivery-scan order contract).
        self._radio_index: Dict["Transceiver", Tuple[Cell, int]] = {}
        self._attach_seq: Dict["Transceiver", int] = {}
        self._next_seq = 0
        # (cell, bucket) -> radios; origin cell -> in-flight transmissions.
        self._cell_radios: Dict[Tuple[Cell, int], Set["Transceiver"]] = {}
        self._cell_txs: Dict[Cell, List[Transmission]] = {}
        # Widest in-band acceptance window over attached radios, in whole
        # buckets; bounds the bucket span a transmission must query.
        self._max_limit_hz = 0.0

    # -- radio index --------------------------------------------------------
    def attach(self, radio: "Transceiver") -> None:
        super().attach(radio)
        if radio not in self._attach_seq:
            self._attach_seq[radio] = self._next_seq
            self._next_seq += 1
        self._max_limit_hz = max(
            self._max_limit_hz,
            radio.bandwidth_hz / 2.0 + self.DELIVERY_MARGIN_HZ,
        )
        self._index_radio(radio)

    def detach(self, radio: "Transceiver") -> None:
        super().detach(radio)
        self._unindex_radio(radio)

    def radio_moved(self, radio: "Transceiver") -> None:
        self._reindex_radio(radio)

    def radio_retuned(self, radio: "Transceiver") -> None:
        self._reindex_radio(radio)

    def _index_radio(self, radio: "Transceiver") -> None:
        key = (self.grid.cell_of(radio.position), _bucket_of(radio.tuned_hz))
        self._radio_index[radio] = key
        self._cell_radios.setdefault(key, set()).add(radio)

    def _unindex_radio(self, radio: "Transceiver") -> None:
        key = self._radio_index.pop(radio, None)
        if key is not None:
            members = self._cell_radios.get(key)
            if members is not None:
                members.discard(radio)
                if not members:
                    del self._cell_radios[key]

    def _reindex_radio(self, radio: "Transceiver") -> None:
        old = self._radio_index.get(radio)
        if old is None:
            return  # not attached yet (mid-construction) or detached
        new = (self.grid.cell_of(radio.position), _bucket_of(radio.tuned_hz))
        if new == old:
            return
        self._unindex_radio(radio)
        self._radio_index[radio] = new
        self._cell_radios.setdefault(new, set()).add(radio)

    # -- interest queries ---------------------------------------------------
    def _delivery_candidates(self, tx: Transmission) -> Sequence["Transceiver"]:
        center = tx.signal.center_frequency
        lo = int((center - self._max_limit_hz) // BUCKET_HZ)
        hi = int((center + self._max_limit_hz) // BUCKET_HZ)
        found: List["Transceiver"] = []
        for cell in self.grid.neighborhood(self.grid.cell_of(tx.origin)):
            for bucket in range(lo, hi + 1):
                members = self._cell_radios.get((cell, bucket))
                if members:
                    found.extend(members)
        # Attach order — the same order the dense medium scans in, so the
        # scheduler's delivery event sequence is identical.
        found.sort(key=self._attach_seq.__getitem__)
        return found

    def _index_transmission(self, tx: Transmission) -> None:
        cell = self.grid.cell_of(tx.origin)
        self._cell_txs.setdefault(cell, []).append(tx)

    def _prune_index(self, live: set) -> None:
        kept: Dict[Cell, List[Transmission]] = {}
        for cell, txs in self._cell_txs.items():
            remaining = [tx for tx in txs if tx.identifier in live]
            if remaining:
                kept[cell] = remaining
        self._cell_txs = kept

    def _compose_candidates(
        self, radios: Sequence["Transceiver"]
    ) -> Sequence[Transmission]:
        cells = {self.grid.cell_of(radio.position) for radio in radios}
        around = {near for cell in cells for near in self.grid.neighborhood(cell)}
        # A transmission is indexed in one cell, so none repeats.
        found = [tx for cell in around for tx in self._cell_txs.get(cell, ())]
        # Identifier order fixes the float summation order (see the dense
        # medium's _compose_candidates contract).
        found.sort(key=lambda tx: tx.identifier)
        return found

    def channel_busy(self, radio: "Transceiver") -> bool:
        now = self.scheduler.now
        for tx in self._compose_candidates([radio]):
            if not tx.start_time <= now <= tx.end_time:
                continue
            if tx.source is radio:
                continue
            if not self._in_band(radio, tx.signal.center_frequency):
                continue
            if not self._within_range(tx, radio):
                continue
            return True
        return False
