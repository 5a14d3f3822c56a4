"""Tests for graceful degradation in the reception/transmission primitives:
the DecodeError taxonomy, the frame-tail confidence gate, the FCS-failed
salvage path, and the narrowed capability exception around
``set_whitening``."""

import numpy as np
import pytest

from repro.chips.capabilities import CapabilityError
from repro.core.encoding import frame_to_msk_bits
from repro.core.rx import SFD_SEARCH_LIMIT, WazaBeeReceiver, decode_payload_bits
from repro.core.tables import default_table
from repro.core.tx import WazaBeeTransmitter
from repro.dot15d4.frames import Address, build_data
from repro.errors import DecodeError, RadioError
from repro.phy.batch import frame_tail
from tests.phy.decode_oracle import symbol_confidences

SRC = Address(pan_id=0x1234, address=0x0063)
DST = Address(pan_id=0x1234, address=0x0042)


def good_capture(psdu: bytes) -> np.ndarray:
    """TX-encode *psdu* and crop to what the receiver sees after the AA."""
    return frame_to_msk_bits(psdu)[32 * 2 :]


def gated_tail(bits: np.ndarray, max_mean_distance: float):
    """Despread a WazaBee capture as the receiver does, then run the
    frame tail with the confidence gate the 802.15.4 decoder uses."""
    strides = bits.size // 32
    blocks = bits[: strides * 32].reshape(strides, 32)[:, 1:]
    symbols, distances = default_table().decode_blocks(blocks)
    return frame_tail(
        symbols.tolist(),
        distances.tolist(),
        max_mean_distance=max_mean_distance,
        search_limit=SFD_SEARCH_LIMIT,
        include_preamble=True,
    )


def valid_psdu() -> bytes:
    return build_data(
        SRC, DST, b"payload", sequence_number=9, ack_request=False
    ).to_bytes()


class _FakeRadio:
    """Minimal LowLevelRadio stand-in recording configuration calls."""

    def __init__(self, whitening_error: Exception = None):
        self.whitening_error = whitening_error
        self.whitening_enabled = False
        self.whitening_channel = 37
        self.armed = None

    def set_data_rate_2m(self):
        pass

    def set_frequency(self, hz):
        pass

    def set_access_address(self, aa):
        pass

    def set_crc_enabled(self, enabled):
        pass

    def set_whitening(self, enabled):
        if self.whitening_error is not None:
            raise self.whitening_error
        self.whitening_enabled = enabled

    def arm_receiver(self, max_bits, handler):
        self.armed = handler

    def disarm_receiver(self):
        self.armed = None

    def send_raw_bits(self, bits):
        self.sent = bits


class TestExceptionTaxonomy:
    def test_decode_error_is_a_radio_error(self):
        assert issubclass(DecodeError, RadioError)
        assert issubclass(RadioError, RuntimeError)

    def test_capability_error_is_a_radio_error(self):
        assert issubclass(CapabilityError, RadioError)

    def test_decode_error_carries_reason_and_distance(self):
        err = DecodeError("low-confidence", mean_distance=7.5)
        assert err.reason == "low-confidence"
        assert err.mean_distance == 7.5


class TestDecodeFailures:
    def test_truncated_returns_none_by_default(self):
        assert decode_payload_bits(np.zeros(64, dtype=np.uint8)) is None

    def test_truncated_raises_in_strict_mode(self):
        with pytest.raises(DecodeError) as info:
            decode_payload_bits(
                np.zeros(64, dtype=np.uint8), strict=True
            )
        assert info.value.reason == "truncated"

    def test_no_sfd_raises_in_strict_mode(self):
        with pytest.raises(DecodeError) as info:
            decode_payload_bits(
                np.zeros(64 * 32, dtype=np.uint8), strict=True
            )
        assert info.value.reason == "no-sfd"

    def test_low_confidence_threshold_rejects_damaged_capture(self):
        bits = good_capture(valid_psdu())
        # Flip one bit inside each later stride: decode survives, but the
        # mean Hamming distance rises above the clean capture's own level
        # (which is small but nonzero — symbol-boundary transition bits).
        damaged = bits.copy()
        for stride in range(10, bits.size // 32):
            damaged[stride * 32 + 5] ^= 1
        clean = decode_payload_bits(bits)
        degraded = decode_payload_bits(damaged)
        assert clean is not None and clean.mean_distance < 1.0
        assert degraded is not None
        assert degraded.mean_distance > clean.mean_distance
        threshold = clean.mean_distance
        assert gated_tail(bits, threshold).psdu == clean.psdu
        with pytest.raises(DecodeError) as info:
            gated_tail(damaged, threshold)
        assert info.value.reason == "low-confidence"
        assert info.value.mean_distance > threshold

    def test_generous_threshold_accepts_clean_capture(self):
        frame = gated_tail(good_capture(valid_psdu()), 5.0)
        assert frame.psdu == valid_psdu()


class TestConfidences:
    def test_clean_decode_has_near_unit_confidence(self):
        frame = decode_payload_bits(good_capture(valid_psdu()))
        confidences = symbol_confidences(frame.distances)
        assert confidences
        # Symbol-boundary transitions cost at most one bit per block.
        assert all(c >= 1.0 - 1.0 / 31.0 for c in confidences)

    def test_damaged_symbols_have_lower_confidence(self):
        bits = good_capture(valid_psdu())
        damaged = bits.copy()
        target_stride = 12
        for bit in (3, 9, 17):
            damaged[target_stride * 32 + bit] ^= 1
        frame = decode_payload_bits(damaged)
        assert frame is not None
        confidences = symbol_confidences(frame.distances)
        assert min(confidences) < 1.0
        # The confidence dip localises the damage.
        assert confidences.index(min(confidences)) == target_stride


class TestSalvagePath:
    def test_corrupt_handler_receives_fcs_failed_frame(self):
        psdu = bytearray(valid_psdu())
        psdu[-1] ^= 0xFF  # break the FCS only
        radio = _FakeRadio()
        receiver = WazaBeeReceiver(radio)
        frames, corrupt = [], []
        receiver.start(14, frames.append, corrupt_handler=corrupt.append)
        radio.armed(good_capture(bytes(psdu)))
        assert len(corrupt) == 1
        assert not corrupt[0].fcs_ok
        # Salvaged frames still carry per-symbol distances for fusion.
        assert corrupt[0].distances
        # The ordinary handler only ever sees FCS-valid frames.
        assert frames == []


class TestWhiteningCapabilityNarrowing:
    def test_rx_tolerates_capability_error(self):
        radio = _FakeRadio(whitening_error=CapabilityError("forced on"))
        receiver = WazaBeeReceiver(radio)
        receiver.start(14, lambda frame: None)  # must not raise
        assert radio.armed is not None

    def test_rx_propagates_unexpected_errors(self):
        radio = _FakeRadio(whitening_error=RuntimeError("hardware fault"))
        receiver = WazaBeeReceiver(radio)
        with pytest.raises(RuntimeError, match="hardware fault"):
            receiver.start(14, lambda frame: None)

    def test_tx_tolerates_capability_error(self):
        radio = _FakeRadio(whitening_error=CapabilityError("forced on"))
        transmitter = WazaBeeTransmitter(radio)
        transmitter.configure(14)  # must not raise
        assert transmitter.channel == 14

    def test_tx_propagates_unexpected_errors(self):
        radio = _FakeRadio(whitening_error=ValueError("bad register"))
        transmitter = WazaBeeTransmitter(radio)
        with pytest.raises(ValueError, match="bad register"):
            transmitter.configure(14)
