"""Tests for the symmetric-pivot experiment and the data-rate requirement."""

import pytest

from repro.experiments import ablations
from repro.experiments.ablations import (
    DataRateCheck,
    data_rate_requirement_check,
)
from repro.experiments import symmetric
from repro.experiments.symmetric import attempt_symmetric_pivot
from repro.obs import scoped


class TestSymmetricPivot:
    def test_dsss_bounds_the_match(self):
        result = attempt_symmetric_pivot()
        assert 0.55 < result.match_fraction < 0.85
        assert not result.crc_ok

    def test_symbols_are_valid(self):
        result = attempt_symmetric_pivot()
        assert all(0 <= s <= 15 for s in result.symbols_used)
        # Enough symbols to cover the whole target packet.
        assert len(result.symbols_used) * 32 >= result.target_bits

    def test_custom_pdu(self, monkeypatch):
        monkeypatch.setattr(symmetric, "TARGET_PDU", b"\x02\x03\x01\x02\x03")
        result = attempt_symmetric_pivot()
        assert result.target_bits > 0
        assert not result.crc_ok


class TestDataRateRequirement:
    def test_le2m_works_le1m_does_not(self, monkeypatch):
        monkeypatch.setattr(ablations, "DATA_RATE_FRAMES", 5)
        with scoped() as (_bus, registry):
            check = data_rate_requirement_check()
        assert check.le2m_received == check.frames
        assert check.le1m_received == 0
        # Pinned: a change to how the bench is built or driven must not
        # move this check's numbers or its counters.
        assert check == DataRateCheck(
            le2m_received=5, le1m_received=0, frames=5
        )
        assert registry.counter_values() == {
            "medium.deliveries.delivered": 10,
            "medium.deliveries.scheduled": 10,
            "medium.transmissions": 10,
            "scheduler.events": 10,
            "tx.frames": 10,
        }

    def test_more_than_256_frames_wrap_the_one_byte_counter(self, monkeypatch):
        # Frame 256's payload byte and sequence number wrap to 0.
        monkeypatch.setattr(ablations, "DATA_RATE_FRAMES", 257)
        check = data_rate_requirement_check()
        assert check == DataRateCheck(
            le2m_received=257, le1m_received=0, frames=257
        )
