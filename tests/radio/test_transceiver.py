"""Tests for the transceiver front-end."""

import numpy as np
import pytest

from repro.dsp.signal import IQSignal
from repro.radio.medium import RfMedium
from repro.radio.scheduler import Scheduler
from repro.radio.transceiver import Transceiver
from tests.dsp.impairment_helpers import instantaneous_frequency


def tone(n=3200, fs=16e6, offset=0.25e6):
    t = np.arange(n) / fs
    return IQSignal(np.exp(2j * np.pi * offset * t), fs)


class TestTuning:
    def test_tune_in_band(self, quiet_medium):
        radio = Transceiver(quiet_medium, "x")
        radio.tune(2405e6)
        assert radio.tuned_hz == 2405e6

    def test_out_of_ism_rejected(self, quiet_medium):
        radio = Transceiver(quiet_medium, "x")
        with pytest.raises(ValueError):
            radio.tune(900e6)

    def test_repr(self, quiet_medium):
        assert "2440" in repr(Transceiver(quiet_medium, "x"))

    def test_position_is_fixed_at_construction(self, quiet_medium):
        radio = Transceiver(quiet_medium, "x", position=(1.0, 2.0))
        with pytest.raises(AttributeError):
            radio.position = (3.0, 4.0)
        assert radio.position == (1.0, 2.0)


class TestHalfDuplex:
    def test_not_listening_while_transmitting(self, scheduler, quiet_medium):
        radio = Transceiver(quiet_medium, "x")
        radio.tune(2440e6)
        radio.start_rx(lambda c, t: None)
        assert radio.is_listening
        radio.transmit(tone())
        assert not radio.is_listening
        scheduler.run(0.01)
        assert radio.is_listening


class TestCfo:
    def test_cfo_applied_per_transmission(self, scheduler, quiet_medium):
        tx = Transceiver(
            quiet_medium,
            "tx",
            position=(0, 0),
            cfo_std_hz=50e3,
            rng=np.random.default_rng(3),
        )
        rx = Transceiver(quiet_medium, "rx", position=(1, 0))
        tx.tune(2440e6)
        rx.tune(2440e6)
        offsets = []

        def measure(capture, _tx):
            freqs = instantaneous_frequency(capture)
            offsets.append(float(np.median(freqs)) - 0.25e6)

        rx.start_rx(measure)
        for _ in range(6):
            tx.transmit(tone())
            scheduler.run(0.01)
        spread = np.std(offsets)
        assert spread > 5e3  # offsets vary between frames
        assert np.max(np.abs(offsets)) < 250e3

    def test_no_cfo_when_disabled(self, scheduler, quiet_medium):
        tx = Transceiver(quiet_medium, "tx", position=(0, 0), cfo_std_hz=0.0)
        rx = Transceiver(quiet_medium, "rx", position=(1, 0))
        tx.tune(2440e6)
        rx.tune(2440e6)
        measured = []
        rx.start_rx(
            lambda c, t: measured.append(np.median(instantaneous_frequency(c)))
        )
        tx.transmit(tone())
        scheduler.run(0.01)
        assert measured[0] == pytest.approx(0.25e6, rel=1e-2)


class TestFiltering:
    def test_adjacent_channel_rejected_by_filter(self, scheduler, quiet_medium):
        """A 2 MHz-away emission is delivered but strongly attenuated."""
        tx = Transceiver(quiet_medium, "tx", position=(0, 0))
        rx = Transceiver(quiet_medium, "rx", position=(1, 0))
        tx.tune(2442e6)
        rx.tune(2440e6)
        captures = []
        rx.start_rx(lambda c, t: captures.append(c))
        tx.transmit(tone(offset=0.0))
        scheduler.run(0.01)
        assert len(captures) == 1
        adjacent_power = captures[0].power()

        rx2 = Transceiver(quiet_medium, "rx2", position=(1, 0))
        rx2.tune(2442e6)
        cocanal = []
        rx2.start_rx(lambda c, t: cocanal.append(c))
        tx.transmit(tone(offset=0.0))
        scheduler.run(0.01)
        assert cocanal[0].power() > 50 * adjacent_power

    def test_plain_transceiver_filters_in_double_precision(
        self, scheduler, quiet_medium
    ):
        """A transceiver no chip model narrows hands its handler the
        medium's complex128."""
        tx = Transceiver(quiet_medium, "tx", position=(0, 0))
        rx = Transceiver(quiet_medium, "rx", position=(1, 0))
        captures = []
        rx.start_rx(lambda c, t: captures.append(c))
        tx.transmit(tone(offset=0.0))
        scheduler.run(0.01)
        assert rx.capture_dtype is None
        assert captures[0].samples.dtype == np.complex128
