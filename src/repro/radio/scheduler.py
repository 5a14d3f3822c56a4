"""Discrete-event scheduler driving the radio simulation.

A minimal priority-queue scheduler: callbacks fire in timestamp order,
ties broken by insertion order.  Node behaviours (periodic sensor reports,
scan timeouts, acknowledgement windows) are all expressed as scheduled
callbacks; the medium schedules packet deliveries at their end-of-airtime.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.obs import metrics as _current_metrics

__all__ = ["Scheduler", "EventHandle"]


@dataclass
class EventHandle:
    """Cancellation token for a scheduled event."""

    time: float
    sequence: int
    cancelled: bool = field(default=False, init=False)

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    """Priority-queue discrete-event scheduler.  Times are seconds."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, EventHandle, Callable[[], None]]] = []
        self._counter = itertools.count()
        # Pre-resolved counter: step() is the hottest control-flow point in
        # the simulator, so the registry lookup happens once, here.
        self._events_metric = _current_metrics().counter("scheduler.events")

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* at absolute *time* (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        handle = EventHandle(time=time, sequence=next(self._counter))
        heapq.heappush(self._queue, (time, handle.sequence, handle, callback))
        return handle

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* after *delay* seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        while self._queue:
            time, _seq, handle, callback = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self.now = time
            self._events_metric.inc()
            callback()
            return True
        return False

    def run_until(self, time: float) -> int:
        """Run events with timestamps <= *time*; returns the event count.

        The clock is advanced to *time* at the end even if the queue drains
        earlier, so periodic behaviours can be re-armed consistently.
        """
        executed = 0
        while self._queue:
            # Discard cancelled events before peeking: otherwise a cancelled
            # head could satisfy the time bound while step() runs a *later*
            # event past it.
            while self._queue and self._queue[0][2].cancelled:
                heapq.heappop(self._queue)
            if not self._queue:
                break
            next_time = self._queue[0][0]
            if next_time > time:
                break
            if not self.step():
                break
            executed += 1
        self.now = max(self.now, time)
        return executed

    def run(self, duration: float) -> int:
        """Run for *duration* simulated seconds from now."""
        return self.run_until(self.now + duration)
