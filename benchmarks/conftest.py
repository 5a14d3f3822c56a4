"""Shared helpers for the benchmark/reproduction harness.

Every bench regenerates one artefact of the paper (a table or a figure),
prints the regenerated rows/series so they can be compared side-by-side with
the paper, and asserts the *shape* claims (who wins, where the dips are).

Frame counts for the heavy Table III run can be tuned via the
``REPRO_TABLE3_FRAMES`` environment variable (default 100, the paper's
count; set it lower for quick runs).

Run it with ``pytest benchmarks --ignore=benchmarks/perf``; it needs only
the tier-1 test dependencies.  The ``benchmark`` fixture times one call.
"""

import os
import time

import pytest


def table3_frames() -> int:
    return int(os.environ.get("REPRO_TABLE3_FRAMES", "100"))


class TimedCall:
    """Runs a regeneration once and keeps its wall-clock in
    :attr:`seconds`: ``benchmark(fn, *args, **kwargs)``, or
    ``benchmark.pedantic(fn, args, kwargs, rounds=1, iterations=1)``."""

    def __init__(self):
        self.seconds = None

    def __call__(self, fn, *args, **kwargs):
        return self.pedantic(fn, args, kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        if (rounds, iterations) != (1, 1):
            raise ValueError("a regeneration runs once: rounds=iterations=1")
        start = time.perf_counter()
        result = fn(*args, **(kwargs or {}))
        self.seconds = time.perf_counter() - start
        return result


@pytest.fixture()
def benchmark():
    """One timed call of the regeneration under test."""
    return TimedCall()


@pytest.fixture()
def report():
    """Print a titled block that survives pytest's capture (-s not needed
    thanks to the terminal summary hook below)."""
    blocks = []

    def _report(title: str, body: str) -> None:
        blocks.append((title, body))
        print(f"\n=== {title} ===\n{body}")

    yield _report
