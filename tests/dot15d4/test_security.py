"""Tests for the 802.15.4 security layer and its MAC integration."""

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, build_data
from repro.dot15d4 import security
from repro.dot15d4.mac import MacService
from repro.dot15d4.security import (
    AUX_HEADER_SIZE,
    SecurityContext,
    SecurityError,
    SecurityLevel,
    build_nonce,
)

KEY = bytes(range(16))
SRC = Address(pan_id=0x1234, address=0x0063)
DST = Address(pan_id=0x1234, address=0x0042)


class TestLevels:
    def test_mic_lengths(self):
        assert SecurityLevel.MIC_32.mic_length == 4
        assert SecurityLevel.ENC_MIC_64.mic_length == 8
        assert SecurityLevel.ENC_MIC_128.mic_length == 16
        assert SecurityLevel.ENC.mic_length == 0

    def test_encryption_flags(self):
        assert SecurityLevel.ENC_MIC_64.encrypted
        assert not SecurityLevel.MIC_64.encrypted


class TestContext:
    def test_key_length_checked(self):
        with pytest.raises(SecurityError):
            SecurityContext(key=bytes(8))

    def test_protect_roundtrip(self):
        sender = SecurityContext(key=KEY)
        receiver = SecurityContext(key=KEY)
        frame = build_data(SRC, DST, b"reading", sequence_number=1)
        secured = sender.protect(frame)
        assert secured.security_enabled
        assert secured.payload != frame.payload
        assert len(secured.payload) == AUX_HEADER_SIZE + len(b"reading") + 8
        assert receiver.unprotect(secured) == b"reading"

    def test_payload_actually_encrypted(self):
        sender = SecurityContext(key=KEY)
        secured = sender.protect(build_data(SRC, DST, b"secret-reading", sequence_number=1))
        assert b"secret-reading" not in secured.payload

    def test_mic_only_level_leaves_plaintext(self, monkeypatch):
        monkeypatch.setattr(security, "LEVEL", SecurityLevel.MIC_64)
        sender = SecurityContext(key=KEY)
        secured = sender.protect(build_data(SRC, DST, b"visible", sequence_number=1))
        assert b"visible" in secured.payload

    def test_frame_counter_advances(self):
        sender = SecurityContext(key=KEY)
        frame = build_data(SRC, DST, b"x", sequence_number=1)
        a = sender.protect(frame)
        b = sender.protect(frame)
        assert a.payload != b.payload  # fresh nonce every frame

    def test_replay_rejected(self):
        sender = SecurityContext(key=KEY)
        receiver = SecurityContext(key=KEY)
        secured = sender.protect(build_data(SRC, DST, b"x", sequence_number=1))
        assert receiver.unprotect(secured) == b"x"
        with pytest.raises(SecurityError):
            receiver.unprotect(secured)

    def test_wrong_key_rejected(self):
        sender = SecurityContext(key=KEY)
        receiver = SecurityContext(key=bytes(16))
        secured = sender.protect(build_data(SRC, DST, b"x", sequence_number=1))
        with pytest.raises(SecurityError):
            receiver.unprotect(secured)

    def test_spoofed_source_rejected(self):
        """Changing the source address breaks the MHR-bound MIC — exactly
        the property that blocks Scenario B's spoofed frames."""
        sender = SecurityContext(key=KEY)
        receiver = SecurityContext(key=KEY)
        secured = sender.protect(build_data(SRC, DST, b"x", sequence_number=1))
        forged = build_data(
            Address(pan_id=0x1234, address=0x0099),
            DST,
            secured.payload,
            sequence_number=secured.sequence_number,
        )
        forged.security_enabled = True
        with pytest.raises(SecurityError):
            receiver.unprotect(forged)

    def test_level_mismatch_rejected(self, monkeypatch):
        monkeypatch.setattr(security, "LEVEL", SecurityLevel.MIC_32)
        secured = SecurityContext(key=KEY).protect(
            build_data(SRC, DST, b"x", sequence_number=1)
        )
        monkeypatch.undo()
        with pytest.raises(SecurityError):
            SecurityContext(key=KEY).unprotect(secured)

    def test_unsecured_frame_rejected(self):
        receiver = SecurityContext(key=KEY)
        with pytest.raises(SecurityError):
            receiver.unprotect(build_data(SRC, DST, b"x", sequence_number=1))

    def test_truncated_aux_header(self):
        receiver = SecurityContext(key=KEY)
        frame = build_data(SRC, DST, b"ab", sequence_number=1)
        frame.security_enabled = True
        with pytest.raises(SecurityError):
            receiver.unprotect(frame)

    def test_nonce_structure(self):
        nonce = build_nonce(SRC, 7, SecurityLevel.ENC_MIC_64)
        assert len(nonce) == 13
        assert nonce[-1] == int(SecurityLevel.ENC_MIC_64)
        assert nonce[8:12] == (7).to_bytes(4, "big")

    def test_counter_exhaustion(self):
        with pytest.raises(SecurityError):
            build_nonce(SRC, 1 << 32, SecurityLevel.ENC_MIC_64)


class TestMacIntegration:
    @pytest.fixture()
    def secured_pair(self, quiet_medium):
        radio_a = Dot15d4Radio(
            quiet_medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
        )
        radio_b = Dot15d4Radio(
            quiet_medium, name="b", position=(2, 0), rng=np.random.default_rng(2)
        )
        mac_a = MacService(radio_a, address=SRC, security=SecurityContext(key=KEY))
        mac_b = MacService(radio_b, address=DST, security=SecurityContext(key=KEY))
        mac_a.start()
        mac_b.start()
        return mac_a, mac_b, quiet_medium.scheduler

    def test_secured_exchange(self, secured_pair):
        mac_a, mac_b, sched = secured_pair
        got = []
        mac_b.on_data(got.append)
        mac_a.send_data(DST, b"protected reading")
        sched.run(0.01)
        assert len(got) == 1
        assert got[0].payload == b"protected reading"

    def test_unsecured_injection_dropped(self, secured_pair, quiet_medium):
        """The Scenario B injection against a secured network."""
        mac_a, mac_b, sched = secured_pair
        got = []
        mac_b.on_data(got.append)
        attacker = Dot15d4Radio(
            quiet_medium, name="attacker", position=(1, 1),
            rng=np.random.default_rng(9),
        )
        attacker.transmit_frame(
            build_data(SRC, DST, b"spoofed", sequence_number=0x55, ack_request=False)
        )
        sched.run(0.01)
        assert got == []
        assert mac_b.stats.security_failures == 1

    def test_keyless_node_drops_secured_traffic(self, quiet_medium):
        radio_a = Dot15d4Radio(
            quiet_medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
        )
        radio_c = Dot15d4Radio(
            quiet_medium, name="c", position=(2, 0), rng=np.random.default_rng(3)
        )
        mac_a = MacService(radio_a, address=SRC, security=SecurityContext(key=KEY))
        mac_c = MacService(radio_c, address=DST)  # no key
        mac_a.start()
        mac_c.start()
        got = []
        mac_c.on_data(got.append)
        mac_a.send_data(DST, b"secret")
        quiet_medium.scheduler.run(0.01)
        assert got == []
        assert mac_c.stats.security_failures == 1
