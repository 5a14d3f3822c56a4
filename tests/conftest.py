"""Shared fixtures for the WazaBee reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.radio.medium import RfMedium
from repro.radio.scheduler import Scheduler

# A fixed Hypothesis profile for CI: no deadline flakes on loaded runners,
# derandomised so every run explores the same examples.
settings.register_profile(
    "ci", deadline=None, max_examples=50, derandomize=True
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


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
