"""Tests for the native 802.15.4 radio model."""

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio, RzUsbStick
from repro.dot15d4.frames import Address, build_data

SRC = Address(pan_id=0x1234, address=1)
DST = Address(pan_id=0x1234, address=2)


@pytest.fixture()
def radios(quiet_medium):
    a = Dot15d4Radio(quiet_medium, name="a", position=(0, 0), rng=np.random.default_rng(1))
    b = Dot15d4Radio(quiet_medium, name="b", position=(3, 0), rng=np.random.default_rng(2))
    a.set_channel(14)
    b.set_channel(14)
    return a, b


class TestReceivePrecision:
    def test_one_row_and_stacked_paths_filter_to_single_and_agree(
        self, radios, quiet_medium
    ):
        """Both delivery paths filter through ``filter_samples`` into
        complex64, and a capture decoded alone (``handle_capture``) and
        as a stack row (``decode_rows``) yields the same frame."""
        a, b = radios
        got = []
        b.start_rx(got.append)
        frame = build_data(SRC, DST, b"single precision", sequence_number=5)
        tx = a.transmit_frame(frame)
        margin = quiet_medium.capture_margin_s
        (capture,) = quiet_medium.compose_capture(
            [b.transceiver], tx.start_time - margin, tx.end_time + margin
        )
        alone = b.transceiver.filter_samples(capture.samples)
        stacked = b.transceiver.filter_samples([capture.samples] * 3)
        assert alone.dtype == stacked.dtype == np.complex64
        for row in stacked:
            assert row.tobytes() == alone.tobytes()
        b.transceiver.handle_capture(capture, tx)
        for row in b.decode_rows(stacked):
            b.take_row(row, capture.duration)
        assert len(got) == 4
        assert got[0].psdu == frame.to_bytes() and got[0].fcs_ok
        assert all(other == got[0] for other in got[1:])


class TestNativeLink:
    def test_loopback(self, radios, scheduler):
        a, b = radios
        got = []
        b.start_rx(got.append)
        frame = build_data(SRC, DST, b"native frame", sequence_number=1)
        a.transmit_frame(frame)
        scheduler.run(0.01)
        assert len(got) == 1
        assert got[0].fcs_ok
        assert got[0].psdu == frame.to_bytes()
        assert got[0].channel == 14
        assert got[0].mean_chip_distance < 2

    def test_channel_isolation(self, radios, scheduler):
        a, b = radios
        b.set_channel(20)
        got = []
        b.start_rx(got.append)
        a.transmit_frame(build_data(SRC, DST, b"x", sequence_number=1))
        scheduler.run(0.01)
        assert got == []

    def test_stop_rx(self, radios, scheduler):
        a, b = radios
        got = []
        b.start_rx(got.append)
        b.stop_rx()
        a.transmit_frame(build_data(SRC, DST, b"x", sequence_number=1))
        scheduler.run(0.01)
        assert got == []

    def test_max_frame_size(self, radios, scheduler):
        a, b = radios
        got = []
        b.start_rx(got.append)
        frame = build_data(SRC, DST, bytes(100), sequence_number=1)
        a.transmit_frame(frame)
        scheduler.run(0.01)
        assert len(got) == 1 and got[0].fcs_ok

    def test_resync_after_payload_preamble_repeat(self, radios, scheduler):
        """A payload full of 0x00 bytes replays the preamble pattern inside
        the frame; first-crossing sync plus SFD-failure resync must still
        find the real frame start."""
        a, b = radios
        got = []
        b.start_rx(got.append)
        frame = build_data(SRC, DST, bytes(40), sequence_number=1)
        a.transmit_frame(frame)
        scheduler.run(0.01)
        assert len(got) == 1 and got[0].fcs_ok

    def test_embedded_frame_after_garbage(self, radios, scheduler, rng):
        """Scenario A's shape: random chips precede the real frame (the BLE
        preamble/AA/headers); the receiver must still lock onto it."""
        from repro.dsp.msk import transitions_to_chips
        from repro.phy.ieee802154 import Ppdu

        a, b = radios
        got = []
        b.start_rx(got.append)
        frame = build_data(SRC, DST, b"embedded", sequence_number=7)
        garbage = rng.integers(0, 2, 176).astype(np.uint8)
        chips = np.concatenate([garbage, Ppdu(frame.to_bytes()).to_chips()])
        a.transceiver.transmit(a._modulator.modulate(chips))
        scheduler.run(0.01)
        assert len(got) == 1
        assert got[0].psdu == frame.to_bytes()

    def test_rzusbstick_subclass(self, quiet_medium):
        stick = RzUsbStick(quiet_medium)
        assert stick.channel == 11
        assert stick.transceiver.name == "RZUSBStick"

    def test_sample_rate_validation(self, scheduler):
        from repro.radio.medium import RfMedium

        odd = RfMedium(scheduler, sample_rate=15e6)
        with pytest.raises(ValueError):
            Dot15d4Radio(odd)
