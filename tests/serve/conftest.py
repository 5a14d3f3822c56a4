"""Fixtures shared by the service tests."""

import pytest

from repro.serve import server


@pytest.fixture(autouse=True)
def _patient_drain(monkeypatch):
    """Give shutdown twice the service's drain time: a loaded test host
    must not cut a subscriber's drain short."""
    monkeypatch.setattr(server, "DRAIN_TIMEOUT_S", 10.0)
