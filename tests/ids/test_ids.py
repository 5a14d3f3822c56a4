"""Tests for the spectrum-monitoring counter-measure (§VII)."""

import numpy as np
import pytest

from repro.chips import Nrf52832, RzUsbStick
from repro.core.firmware import WazaBeeFirmware
from repro.dot15d4.channels import ZIGBEE_CHANNELS, channel_frequency_hz
from repro.dot15d4.frames import Address, build_data
from repro.ids import AnomalyDetector, SpectrumSentinel
from repro.ids.monitor import BandObservation

BANDS = [channel_frequency_hz(ch) for ch in (11, 14, 20, 26)]
SRC = Address(pan_id=1, address=1)
DST = Address(pan_id=1, address=2)


@pytest.fixture()
def sentinel(medium):
    sentinel = SpectrumSentinel(medium, BANDS, position=(1, 1))
    sentinel.start()
    return sentinel


class TestSentinel:
    def test_detects_zigbee_emission(self, sentinel, medium, scheduler):
        zigbee = RzUsbStick(medium, position=(0, 0), rng=np.random.default_rng(1))
        zigbee.set_channel(14)
        zigbee.transmit_frame(build_data(SRC, DST, b"x", sequence_number=1))
        scheduler.run(0.01)
        bands = [obs.band_hz for obs in sentinel.observations]
        assert bands.count(channel_frequency_hz(14)) == 1
        obs = sentinel.observations[0]
        assert obs.duration_s > 0
        assert obs.power_dbm > -85

    def test_detects_wazabee_emission(self, sentinel, medium, scheduler):
        """The pivot is indistinguishable in band terms — the sentinel sees
        it like any Zigbee frame (that's the detection premise)."""
        chip = Nrf52832(medium, position=(0, 0), rng=np.random.default_rng(2))
        firmware = WazaBeeFirmware(chip, scheduler)
        firmware.send_frame(build_data(SRC, DST, b"x", sequence_number=1), 14)
        scheduler.run(0.01)
        bands = [obs.band_hz for obs in sentinel.observations]
        assert bands.count(channel_frequency_hz(14)) == 1

    def test_unmonitored_band_ignored(self, sentinel, medium, scheduler):
        zigbee = RzUsbStick(medium, position=(0, 0), rng=np.random.default_rng(1))
        zigbee.set_channel(22)  # not monitored in this fixture
        zigbee.transmit_frame(build_data(SRC, DST, b"x", sequence_number=1))
        scheduler.run(0.01)
        assert sentinel.observations == []

    def test_observations_since_and_clear(self, sentinel, medium, scheduler):
        zigbee = RzUsbStick(medium, position=(0, 0), rng=np.random.default_rng(1))
        zigbee.set_channel(14)
        zigbee.transmit_frame(build_data(SRC, DST, b"x", sequence_number=1))
        scheduler.run(0.01)
        mark = scheduler.now
        zigbee.transmit_frame(build_data(SRC, DST, b"y", sequence_number=2))
        scheduler.run(0.01)
        assert len(sentinel.observations) == 2
        assert len(sentinel.observations_since(mark)) == 1
        sentinel.clear()
        assert sentinel.observations == []

    def test_stop(self, sentinel, medium, scheduler):
        sentinel.stop()
        zigbee = RzUsbStick(medium, position=(0, 0), rng=np.random.default_rng(1))
        zigbee.set_channel(14)
        zigbee.transmit_frame(build_data(SRC, DST, b"x", sequence_number=1))
        scheduler.run(0.01)
        assert sentinel.observations == []


def obs(band, time=0.0, power=-50.0, duration=1e-3):
    return BandObservation(time=time, band_hz=band, power_dbm=power, duration_s=duration)


class TestDetector:
    def test_requires_training(self):
        detector = AnomalyDetector()
        with pytest.raises(RuntimeError):
            detector.score([], 1.0)

    def test_new_band_alert(self):
        detector = AnomalyDetector()
        detector.train([obs(2402e6, time=i) for i in range(10)], duration_s=10)
        alerts = detector.score([obs(2420e6)], duration_s=1.0)
        assert any(a.kind == "new-band" for a in alerts)

    def test_known_band_quiet(self):
        detector = AnomalyDetector()
        detector.train([obs(2402e6, time=i) for i in range(10)], duration_s=10)
        alerts = detector.score([obs(2402e6)], duration_s=1.0)
        assert alerts == []

    def test_rate_alert(self):
        detector = AnomalyDetector()
        detector.train([obs(2402e6, time=i) for i in range(10)], duration_s=10)
        burst = [obs(2402e6, time=i * 0.01) for i in range(50)]
        alerts = detector.score(burst, duration_s=1.0)
        assert any(a.kind == "rate" for a in alerts)

    def test_power_alert(self):
        detector = AnomalyDetector()
        train = [obs(2402e6, time=i, power=-50 + 0.1 * (i % 3)) for i in range(20)]
        detector.train(train, duration_s=20)
        alerts = detector.score(
            [obs(2402e6, power=-20), obs(2402e6, power=-21)], duration_s=2.0
        )
        assert any(a.kind == "power" for a in alerts)

    def test_validation(self):
        detector = AnomalyDetector()
        with pytest.raises(ValueError):
            detector.train([], duration_s=0)
        detector.train([obs(2402e6)], duration_s=1)
        with pytest.raises(ValueError):
            detector.score([], duration_s=0)

    def test_end_to_end_pivot_detection(self, medium, scheduler):
        """Train on silence over the Zigbee bands, then catch the pivot."""
        bands = [channel_frequency_hz(ch) for ch in ZIGBEE_CHANNELS]
        sentinel = SpectrumSentinel(medium, bands, position=(1, 1))
        sentinel.start()
        detector = AnomalyDetector()
        scheduler.run(1.0)
        detector.train(sentinel.observations, duration_s=1.0)
        chip = Nrf52832(medium, position=(0, 0), rng=np.random.default_rng(5))
        firmware = WazaBeeFirmware(chip, scheduler)
        start = scheduler.now
        firmware.send_frame(build_data(SRC, DST, b"pivot", sequence_number=1), 14)
        scheduler.run(0.1)
        alerts = detector.score(
            sentinel.observations_since(start), duration_s=0.1
        )
        assert any(
            a.kind == "new-band" and a.band_hz == channel_frequency_hz(14)
            for a in alerts
        )
