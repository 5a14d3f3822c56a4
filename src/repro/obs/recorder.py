"""Trace consumers: in-memory recorder and JSONL writer.

``TraceRecorder`` is the test-facing surface — it accumulates every event
in emission order and offers count/filter helpers for ledger assertions.
``JsonlTraceWriter`` is the export surface behind the CLI's ``--trace
FILE`` flag: one JSON object per line, flat schema (``seq``, ``time``,
``event``, then the event's own fields).
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional, Union

from repro.obs.bus import TraceBus, trace_bus
from repro.obs.events import TraceEvent

__all__ = ["TraceRecorder", "JsonlTraceWriter", "write_events_jsonl"]


class TraceRecorder:
    """Subscribe to a bus and keep every event in memory.

    Usable as a context manager; on exit the recorder unsubscribes but
    keeps its events for inspection.
    """

    def __init__(self, bus: Optional[TraceBus] = None):
        self.bus = bus if bus is not None else trace_bus()
        self.events: List[TraceEvent] = []
        self._attached = False
        self.bus.subscribe(self._on_event)
        self._attached = True

    def _on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        if self._attached:
            self.bus.unsubscribe(self._on_event)
            self._attached = False

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def count(self, name: str, **field_filters) -> int:
        """How many events of *name* match every given field value."""
        total = 0
        for event in self.events:
            if event.name != name:
                continue
            if all(
                event.fields.get(key) == value
                for key, value in field_filters.items()
            ):
                total += 1
        return total

    def as_dicts(self) -> List[Dict[str, object]]:
        """Flat JSON-serialisable event list (pickles across processes)."""
        return [event.as_dict() for event in self.events]


class JsonlTraceWriter:
    """Stream events to a JSONL file as they are emitted."""

    def __init__(self, target: Union[str, IO[str]], bus: Optional[TraceBus] = None):
        self.bus = bus if bus is not None else trace_bus()
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._attached = False
        self.bus.subscribe(self._on_event)
        self._attached = True
        self.events_written = 0

    def _on_event(self, event: TraceEvent) -> None:
        json.dump(event.as_dict(), self._handle, sort_keys=True)
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._attached:
            self.bus.unsubscribe(self._on_event)
            self._attached = False
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def write_events_jsonl(events: List[Dict[str, object]], path: str) -> int:
    """Write pre-collected event dicts (e.g. from worker processes) to JSONL.

    Returns the number of lines written.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            json.dump(event, handle, sort_keys=True)
            handle.write("\n")
    return len(events)
