"""Metrics registry: counters, gauges and histogram stage timers.

Counters and gauges are deterministic under a fixed seed (they count
simulation events); timers measure **wall-clock** stage spans on the
monotonic clock (``time.perf_counter``) and are therefore excluded from
the deterministic snapshot that experiment cells embed in their results —
:meth:`MetricsRegistry.snapshot` separates the two so callers can pick.

Everything is create-on-first-use::

    registry.counter("rx.decode.ok").inc()
    registry.gauge("scheduler.pending").set(12)
    with registry.timer("decode").time():
        ...hot stage...
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterator, List
from contextlib import contextmanager

__all__ = ["Counter", "Gauge", "Timer", "MetricsRegistry"]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, buffer fill, channel number)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Histogram bucket upper bounds for stage timers, in seconds
#: (1 µs … 10 s, one bucket per decade, plus an overflow bucket).
TIMER_BUCKET_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Timer:
    """Wall-clock histogram of stage durations.

    Tracks count / total / min / max plus a fixed log-scale bucket
    histogram — enough to tell "decode got slower" from "one outlier",
    without unbounded per-sample storage.
    """

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.buckets: List[int] = [0] * (len(TIMER_BUCKET_BOUNDS) + 1)

    def observe(self, duration_s: float) -> None:
        """Record one span (seconds on the monotonic clock)."""
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s
        for index, bound in enumerate(TIMER_BUCKET_BOUNDS):
            if duration_s <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager timing one stage span."""
        start = _time.perf_counter()
        try:
            yield
        finally:
            self.observe(_time.perf_counter() - start)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Create-on-first-use registry of counters, gauges and timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def counter_values(self) -> Dict[str, int]:
        """Deterministic counter snapshot (sorted by name), zeros included."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
        }

    def snapshot(self) -> Dict[str, object]:
        """Full registry dump.

        ``counters`` and ``gauges`` are deterministic under a fixed seed;
        ``timers`` carry wall-clock spans and vary run to run — callers
        embedding metrics in reproducible artefacts (Table III cells)
        take :meth:`counter_values` instead.
        """
        return {
            "counters": self.counter_values(),
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "timers": {
                name: self._timers[name].as_dict()
                for name in sorted(self._timers)
            },
        }

    def format(self) -> str:
        """Human-readable one-metric-per-line rendering (CLI ``--metrics``)."""
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"{name:48s} {self._counters[name].value}")
        for name in sorted(self._gauges):
            lines.append(f"{name:48s} {self._gauges[name].value:g}")
        for name in sorted(self._timers):
            timer = self._timers[name]
            lines.append(
                f"{name:48s} n={timer.count} total={timer.total_s:.6f}s "
                f"mean={timer.mean_s * 1e3:.3f}ms max={timer.max_s * 1e3:.3f}ms"
            )
        return "\n".join(lines)
