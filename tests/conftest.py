"""Shared fixtures for the WazaBee reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.experiments import pool
from repro.radio.medium import RfMedium
from repro.radio.scheduler import Scheduler

# A fixed Hypothesis profile for CI: no deadline flakes on loaded runners,
# derandomised so every run explores the same examples.
settings.register_profile(
    "ci", deadline=None, max_examples=50, derandomize=True
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(autouse=True)
def _no_patched_pool_worker(request):
    """Shut down a worker pool made during a test that patches.

    A pool worker is forked from this process and keeps every patch that
    was active when it was forked, for the rest of the session; a pool
    made before a test never sees that test's patches (such tests run
    their campaigns with ``workers=1``).
    """
    before = pool._executor
    yield
    if "monkeypatch" in request.fixturenames and pool._executor is not before:
        pool._shutdown()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def scheduler() -> Scheduler:
    return Scheduler()


@pytest.fixture()
def quiet_medium(scheduler: Scheduler) -> RfMedium:
    """A medium with a very low noise floor and no interference."""
    return RfMedium(scheduler, noise_floor_dbm=-120.0)


@pytest.fixture()
def medium(scheduler: Scheduler) -> RfMedium:
    """The default medium (realistic noise floor, no interferers)."""
    return RfMedium(scheduler)
