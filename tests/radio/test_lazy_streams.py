"""Devices derive their random streams at the first draw, and radios are
built on their channel.

A stream derived at its first draw must equal the one derived at
construction (same seed, same label), draw for draw; a radio built on a
channel must equal one built on the default and then tuned.
"""

import numpy as np
import pytest

from repro.chips import Nrf52832
from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.channels import channel_frequency_hz
from repro.dot15d4.frames import Address
from repro.dot15d4.mac import MacService
from repro.dsp.gfsk import clear_waveform_caches
from repro.dsp.oqpsk import oqpsk_modems
from repro.dsp.signal import IQSignal
from repro.radio.medium import RfMedium
from repro.radio.scheduler import Scheduler
from repro.radio.shard import ShardedRfMedium
from repro.radio.transceiver import Transceiver

DRAWS = 1000


def make_medium(seed=11, sample_rate=16e6):
    return RfMedium(Scheduler(), sample_rate=sample_rate, seed=seed)


def tone(n=1600, fs=16e6):
    t = np.arange(n) / fs
    return IQSignal(np.exp(2j * np.pi * 0.25e6 * t), fs)


class TestLazyStreams:
    def test_rx_stream_is_derived_at_the_first_capture(self):
        medium = make_medium()
        radio = Transceiver(medium, "rx")
        assert "rx" not in medium._rx_streams
        medium.compose_capture([radio], 0.0, 1e-5)
        assert "rx" in medium._rx_streams

    def test_lazy_rx_stream_equals_an_eager_one(self):
        medium = make_medium()
        radio = Transceiver(medium, "rx")
        eager = make_medium().derive_rng("medium.rx:rx")
        lazy = medium._rx_stream(radio)
        np.testing.assert_array_equal(
            lazy.standard_normal(DRAWS), eager.standard_normal(DRAWS)
        )

    def test_lazy_cfo_stream_equals_an_eager_one(self):
        medium = make_medium()
        radio = Transceiver(medium, "tx", cfo_std_hz=50e3)
        assert radio._rng is None
        eager = make_medium().derive_rng("tx")
        np.testing.assert_array_equal(
            radio.rng.normal(0.0, 50e3, DRAWS), eager.normal(0.0, 50e3, DRAWS)
        )

    def test_lazy_cfo_stream_transmits_the_eager_capture(self):
        captures = []
        for eager in (False, True):
            medium = make_medium()
            rng = medium.derive_rng("tx") if eager else None
            tx = Transceiver(medium, "tx", cfo_std_hz=50e3, rng=rng)
            rx = Transceiver(medium, "rx", position=(1.0, 0.0))
            got = []
            rx.start_rx(lambda capture, _tx: got.append(capture.samples))
            for _ in range(3):
                tx.transmit(tone())
                medium.scheduler.run(1e-3)
            captures.append(np.concatenate(got))
        np.testing.assert_array_equal(captures[0], captures[1])

    def test_lazy_mac_stream_equals_an_eager_one(self):
        medium = make_medium()
        radio = Dot15d4Radio(medium, name="n")
        address = Address(pan_id=0x1234, address=0x0063)
        mac = MacService(radio, address)
        assert mac._rng is None
        # A re-addressed node keeps the stream keyed by its first address.
        mac.address = Address(pan_id=0x4321, address=0x0063)
        eager = np.random.default_rng((0x1234 << 20) ^ 0x0063 ^ 0xC5A3)
        np.testing.assert_array_equal(
            mac.rng.integers(0, 8, DRAWS), eager.integers(0, 8, DRAWS)
        )

    def test_given_generators_are_used_as_is(self):
        medium = make_medium()
        rng = np.random.default_rng(3)
        assert Transceiver(medium, "a", rng=rng).rng is rng
        radio = Dot15d4Radio(medium, name="b", rng=rng)
        assert radio.rng is rng

    def test_a_chip_and_its_transceiver_share_one_generator(self):
        medium = make_medium()
        calls = []
        derive = medium.derive_rng
        medium.derive_rng = lambda label: calls.append(label) or derive(label)
        zigbee = Dot15d4Radio(medium, name="zb")
        ble = Nrf52832(medium, name="ble")
        assert calls == []
        assert zigbee.rng is zigbee.transceiver.rng
        assert ble.rng is ble.transceiver.rng
        assert calls == ["zb", "ble"]


class TestBuiltTuned:
    def test_out_of_band_construction_raises_like_tune(self):
        medium = make_medium()
        radio = Transceiver(medium, "x")
        with pytest.raises(ValueError) as tuned:
            radio.tune(900e6)
        with pytest.raises(ValueError) as built:
            Transceiver(medium, "y", tuned_hz=900e6)
        assert str(built.value) == str(tuned.value).replace("x:", "y:")
        with pytest.raises(ValueError, match="outside the 2.4-2.5 GHz"):
            Transceiver(medium, "z", tuned_hz=2.6e9)
        assert list(medium._radios) == ["x"]

    @pytest.mark.parametrize("channel", [11, 14, 20, 26])
    def test_built_on_a_channel_equals_tuned_after(self, channel):
        def medium():
            return ShardedRfMedium(
                Scheduler(), sample_rate=4e6, seed=1, range_cutoff_m=15.0
            )

        built_on = medium()
        built = Dot15d4Radio(built_on, name="r", channel=channel)
        tuned_on = medium()
        tuned = Dot15d4Radio(tuned_on, name="r")
        tuned.set_channel(channel)
        assert built.channel == tuned.channel == channel
        assert (
            built.transceiver.tuned_hz
            == tuned.transceiver.tuned_hz
            == channel_frequency_hz(channel)
        )

        def cells(medium):
            return {c: {r.name for r in rs} for c, rs in medium._cell_radios.items()}

        assert cells(built_on) == cells(tuned_on)

    def test_invalid_channel_is_rejected_before_attaching(self):
        medium = make_medium()
        with pytest.raises(ValueError, match="invalid 802.15.4 channel"):
            Dot15d4Radio(medium, name="r", channel=27)
        assert not medium._radios


class TestSharedModems:
    def test_radios_at_one_rate_share_one_modem_pair(self):
        medium = make_medium(sample_rate=4e6)
        a = Dot15d4Radio(medium, name="a")
        b = Dot15d4Radio(medium, name="b")
        assert a._modulator is b._modulator
        assert a._demodulator is b._demodulator

    def test_clear_waveform_caches_drops_the_modems(self):
        modems = oqpsk_modems(2)
        assert oqpsk_modems.cache_info().currsize >= 1
        clear_waveform_caches()
        assert oqpsk_modems.cache_info().currsize == 0
        assert oqpsk_modems(2) is not modems
