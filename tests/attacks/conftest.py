"""Fixtures shared by the attack tests."""

import pytest

from repro.attacks import scenario_b


@pytest.fixture()
def tune(monkeypatch):
    """Set Scenario B's workflow constants (``SCAN_CHANNELS=(14,)``, ...)
    for one test."""

    def tune(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(scenario_b, name, value)

    return tune
