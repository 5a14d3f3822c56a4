"""Tests for the RF medium: propagation, delivery, superposition."""

import math

import numpy as np
import pytest

from repro.dsp.signal import IQSignal
from repro.radio.medium import PropagationModel, RfMedium
from repro.radio.scheduler import Scheduler
from repro.radio.transceiver import Transceiver


def make_env(noise_dbm=-120.0):
    sched = Scheduler()
    medium = RfMedium(sched, noise_floor_dbm=noise_dbm)
    return sched, medium


def tone_baseband(n=1600, fs=16e6):
    t = np.arange(n) / fs
    return IQSignal(np.exp(2j * np.pi * 0.25e6 * t), fs)


class TestPropagation:
    def test_reference_loss(self):
        model = PropagationModel(exponent=2.0)
        assert model.path_gain_db((0, 0), (1, 0)) == pytest.approx(-40.0)

    def test_distance_exponent(self):
        model = PropagationModel(exponent=2.0)
        g1 = model.path_gain_db((0, 0), (1, 0))
        g10 = model.path_gain_db((0, 0), (10, 0))
        assert g1 - g10 == pytest.approx(20.0)

    def test_minimum_distance_clamped(self):
        model = PropagationModel()
        same = model.path_gain_db((0, 0), (0, 0))
        assert math.isfinite(same)

    def test_shadowing_randomises(self):
        model = PropagationModel(shadowing_sigma_db=6.0)
        rng = np.random.default_rng(1)
        gains = {model.path_gain_db((0, 0), (3, 0), rng) for _ in range(10)}
        assert len(gains) == 10


class TestDelivery:
    def test_listener_receives(self):
        sched, medium = make_env()
        tx = Transceiver(medium, "tx", position=(0, 0))
        rx = Transceiver(medium, "rx", position=(3, 0))
        tx.tune(2440e6)
        rx.tune(2440e6)
        captures = []
        rx.start_rx(lambda c, t: captures.append((c, t)))
        tx.transmit(tone_baseband())
        sched.run(0.01)
        assert len(captures) == 1
        capture, transmission = captures[0]
        assert capture.center_frequency == 2440e6
        assert transmission.source is tx

    def test_path_loss_applied(self):
        sched, medium = make_env()
        tx = Transceiver(medium, "tx", position=(0, 0), tx_power_dbm=0.0)
        rx = Transceiver(medium, "rx", position=(1, 0))
        tx.tune(2440e6)
        rx.tune(2440e6)
        captures = []
        rx.start_rx(lambda c, t: captures.append(c))
        tx.transmit(tone_baseband())
        sched.run(0.01)
        power_dbm = 10 * np.log10(captures[0].power())
        # 40 dB reference loss at 1 m (plus a little filter loss).
        assert power_dbm == pytest.approx(-40.0, abs=2.0)

    def test_out_of_band_not_delivered(self):
        sched, medium = make_env()
        tx = Transceiver(medium, "tx", position=(0, 0))
        rx = Transceiver(medium, "rx", position=(3, 0))
        tx.tune(2440e6)
        rx.tune(2470e6)
        captures = []
        rx.start_rx(lambda c, t: captures.append(c))
        tx.transmit(tone_baseband())
        sched.run(0.01)
        assert captures == []

    def test_not_listening_not_delivered(self):
        sched, medium = make_env()
        tx = Transceiver(medium, "tx", position=(0, 0))
        rx = Transceiver(medium, "rx", position=(3, 0))
        tx.tune(2440e6)
        rx.tune(2440e6)
        tx.transmit(tone_baseband())
        sched.run(0.01)  # rx never armed — nothing should crash

    def test_retune_in_flight_drops_delivery(self):
        sched, medium = make_env()
        tx = Transceiver(medium, "tx", position=(0, 0))
        rx = Transceiver(medium, "rx", position=(3, 0))
        tx.tune(2440e6)
        rx.tune(2440e6)
        captures = []
        rx.start_rx(lambda c, t: captures.append(c))
        tx.transmit(tone_baseband())
        rx.tune(2480e6)  # retune before end-of-airtime
        sched.run(0.01)
        assert captures == []

    def test_half_duplex_no_self_reception(self):
        sched, medium = make_env()
        node = Transceiver(medium, "node", position=(0, 0))
        node.tune(2440e6)
        captures = []
        node.start_rx(lambda c, t: captures.append(c))
        node.transmit(tone_baseband())
        sched.run(0.01)
        assert captures == []

    def test_collision_superposes(self):
        sched, medium = make_env()
        tx1 = Transceiver(medium, "tx1", position=(0, 0))
        tx2 = Transceiver(medium, "tx2", position=(0, 1))
        rx = Transceiver(medium, "rx", position=(3, 0))
        for radio in (tx1, tx2, rx):
            radio.tune(2440e6)
        captures = []
        rx.start_rx(lambda c, t: captures.append(c))
        tx1.transmit(tone_baseband())
        tx2.transmit(tone_baseband())
        sched.run(0.01)
        # Two deliveries (one per transmission), each containing both signals.
        assert len(captures) == 2
        solo_power = 10 ** (-40.0 / 10)  # ~1 m and ~3 m paths differ; just
        assert captures[0].power() > 0  # sanity: energy present

    def test_sample_rate_mismatch_rejected(self):
        sched, medium = make_env()
        tx = Transceiver(medium, "tx", position=(0, 0))
        tx.tune(2440e6)
        bad = IQSignal(np.ones(16), 8e6)
        with pytest.raises(ValueError):
            tx.transmit(bad)

    def test_noise_floor_present(self):
        sched, medium = make_env(noise_dbm=-90.0)
        rx = Transceiver(medium, "rx", position=(0, 0))
        rx.tune(2440e6)
        (capture,) = medium.compose_capture([rx], 0.0, 1e-4)
        level = 10 * np.log10(capture.power())
        assert level == pytest.approx(-90.0, abs=1.5)


class TestAttach:
    """Per-receiver streams are keyed by name: one name, one radio."""

    @pytest.mark.parametrize("sharded", [False, True])
    def test_duplicate_name_rejected(self, sharded):
        sched = Scheduler()
        if sharded:
            from repro.radio.shard import ShardedRfMedium

            medium = ShardedRfMedium(sched, range_cutoff_m=10.0)
        else:
            medium = RfMedium(sched)
        first = Transceiver(medium, "node", position=(0, 0))
        with pytest.raises(ValueError, match="'node' is already attached"):
            Transceiver(medium, "node", position=(1, 0))
        assert list(medium._radios.values()) == [first]

    def test_reattaching_the_same_radio_is_a_no_op(self):
        _, medium = make_env()
        radio = Transceiver(medium, "rx", position=(0, 0))
        medium.attach(radio)
        assert list(medium._radios.values()) == [radio]
