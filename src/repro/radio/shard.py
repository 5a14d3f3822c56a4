"""Spatially partitioned, interest-managed RF medium.

:class:`ShardedRfMedium` implements exactly the semantics of a dense
:class:`~repro.radio.medium.RfMedium` with a finite ``range_cutoff_m``, but
replaces its O(radios) delivery scan and O(transmissions) composition scan
with interest sets maintained on a 2D cell grid:

* every attached radio is indexed once, at attach, by the grid cell of
  its position (cell edge = range cutoff), so a transmission only visits
  the radios of the 3x3 cell neighbourhood around its origin.  Positions
  are fixed at construction, so a radio never changes cell.  Tuning is
  not indexed: the in-band test runs on each candidate;
* every in-flight transmission is indexed by its *origin* cell, so the
  captures of a stack of receivers compose against the 3x3
  neighbourhoods around their positions instead of the whole
  superposition list, and clear-channel assessment
  (:meth:`RfMedium.channel_busy`, shared by both media) scans one
  neighbourhood.

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
        # radio -> sequence number of its attach (the dense medium's
        # delivery-scan order: its radio dict's order).
        self._attach_seq: Dict["Transceiver", int] = {}
        # cell -> radios; origin cell -> in-flight transmissions.
        self._cell_radios: Dict[Cell, Set["Transceiver"]] = {}
        self._cell_txs: Dict[Cell, List[Transmission]] = {}

    # -- radio index --------------------------------------------------------
    def attach(self, radio: "Transceiver") -> None:
        if radio in self._attach_seq:
            return  # already attached: a no-op, as on the dense medium
        super().attach(radio)
        self._attach_seq[radio] = len(self._attach_seq)
        cell = self.grid.cell_of(radio.position)
        self._cell_radios.setdefault(cell, set()).add(radio)

    # -- interest queries ---------------------------------------------------
    def _delivery_candidates(self, tx: Transmission) -> Sequence["Transceiver"]:
        found = [
            radio
            for cell in self.grid.neighborhood(self.grid.cell_of(tx.origin))
            for radio in self._cell_radios.get(cell, ())
        ]
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

    # The inherited body, bound here by name: fleetbench wraps channel_busy
    # per class and restores it from the class's own __dict__.
    channel_busy = RfMedium.channel_busy
