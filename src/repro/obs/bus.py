"""The trace-event bus.

A :class:`TraceBus` fans structured events out to zero or more subscribers.
The design constraint is the acceptance criterion of the observability
layer: with **no subscriber attached the stack must run at full speed** —
so ``emit`` returns before touching its keyword arguments, and hot call
sites can additionally guard with :attr:`TraceBus.active` to skip even the
argument construction::

    if bus.active:
        bus.emit(RX_DECODE, time=now, outcome="ok", channel=14)

A process-global default bus is what instrumented components bind to when
no explicit bus is passed; :func:`scoped` swaps in a fresh bus (and metrics
registry) for the duration of one experiment cell or test, so concurrent
sequential runs never bleed events into each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry

__all__ = ["TraceBus", "trace_bus", "metrics", "scoped"]

Subscriber = Callable[[TraceEvent], None]


class TraceBus:
    """Synchronous fan-out of :class:`TraceEvent` records."""

    __slots__ = ("_subscribers", "_seq")

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._seq = 0

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached (emit will work)."""
        return bool(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach *subscriber*; returns it (the unsubscribe token)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach a subscriber; missing subscribers are ignored."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def emit(self, name: str, time: float = 0.0, **fields) -> None:
        """Publish one event to every subscriber.

        No-op (beyond the truthiness check) when nobody is listening.
        Events are sequence-numbered in emission order, which under the
        discrete-event scheduler is deterministic for a fixed seed.
        """
        if not self._subscribers:
            return
        self._seq += 1
        event = TraceEvent(seq=self._seq, time=time, name=name, fields=fields)
        for subscriber in self._subscribers:
            subscriber(event)


_GLOBAL_BUS = TraceBus()
_GLOBAL_METRICS = MetricsRegistry()
_current_bus = _GLOBAL_BUS
_current_metrics = _GLOBAL_METRICS


def trace_bus() -> TraceBus:
    """The currently scoped trace bus (process-global by default)."""
    return _current_bus


def metrics() -> MetricsRegistry:
    """The currently scoped metrics registry (process-global by default)."""
    return _current_metrics


@contextmanager
def scoped(
    bus: Optional[TraceBus] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[TraceBus, MetricsRegistry]]:
    """Swap in a fresh (bus, registry) pair for the duration of the block.

    Components constructed inside the block bind to the scoped instances,
    so one Table III cell (or one test) observes only its own events and
    counters.  Nesting restores outer scopes correctly.
    """
    global _current_bus, _current_metrics
    new_bus = bus if bus is not None else TraceBus()
    new_metrics = registry if registry is not None else MetricsRegistry()
    previous = (_current_bus, _current_metrics)
    _current_bus = new_bus
    _current_metrics = new_metrics
    try:
        yield new_bus, new_metrics
    finally:
        _current_bus, _current_metrics = previous
