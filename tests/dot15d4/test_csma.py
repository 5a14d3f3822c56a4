"""Tests for unslotted CSMA-CA and ACK-wait retransmission in the MAC."""

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address
from repro.dot15d4.mac import MAX_FRAME_RETRIES, MacService
from repro.faults import FaultInjector, FaultPlan

PAN = 0x1234
ADDR_A = Address(pan_id=PAN, address=0x0001)
ADDR_B = Address(pan_id=PAN, address=0x0002)


@pytest.fixture()
def pair(quiet_medium):
    radio_a = Dot15d4Radio(
        quiet_medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
    )
    radio_b = Dot15d4Radio(
        quiet_medium, name="b", position=(2, 0), rng=np.random.default_rng(2)
    )
    mac_a = MacService(radio_a, address=ADDR_A)
    mac_b = MacService(radio_b, address=ADDR_B)
    mac_a.start()
    mac_b.start()
    return mac_a, mac_b, quiet_medium.scheduler


def occupy_channel(medium, until_s, frame_gap_s=2e-3):
    """Keep the air busy with back-to-back long frames from a third radio."""
    radio_c = Dot15d4Radio(
        medium, name="jam", position=(1, 1), rng=np.random.default_rng(3)
    )
    from repro.dot15d4.frames import build_data

    long_frame = build_data(
        source=Address(pan_id=PAN, address=0x0099),
        destination=Address(pan_id=PAN, address=0x0098),
        payload=bytes(60),
        sequence_number=1,
        ack_request=False,
    )
    t = 0.0
    while t < until_s:
        medium.scheduler.schedule_at(
            t, lambda: radio_c.transmit_frame(long_frame)
        )
        t += frame_gap_s
    return radio_c


class TestCsma:
    def test_busy_channel_defers_transmission(self, pair, quiet_medium):
        mac_a, mac_b, sched = pair
        occupy_channel(quiet_medium, until_s=6e-3)
        got = []
        mac_b.on_data(got.append)
        results = []
        mac_a.send_data(
            ADDR_B, b"deferred",
            on_result=lambda seq, ok: results.append(ok),
        )
        sched.run(0.2)
        assert mac_a.stats.csma_backoffs >= 1
        assert results == [True]
        # The frame eventually arrived despite the early congestion.
        assert [f.payload for f in got].count(b"deferred") == 1

    def test_channel_access_failure_drops_frame(self, pair, quiet_medium):
        mac_a, mac_b, sched = pair
        # Channel saturated longer than the worst-case backoff schedule
        # (~37 ms: five CCAs with BE growing 3 -> 5).
        occupy_channel(quiet_medium, until_s=0.05, frame_gap_s=2e-3)
        results = []
        mac_a.send_data(
            ADDR_B, b"never",
            on_result=lambda seq, ok: results.append(ok),
        )
        sched.run(0.1)
        assert results == [False]
        assert mac_a.stats.channel_access_failures == 1
        assert mac_a.stats.drops == 1
        assert mac_a.stats.sent_frames == 0

    def test_clear_channel_transmits_without_backoff_penalty(self, pair):
        mac_a, mac_b, sched = pair
        mac_a.send_data(ADDR_B, b"clear")
        sched.run(0.01)
        assert mac_a.stats.csma_backoffs == 0
        assert mac_a.stats.sent_frames == 1

    def test_queued_frames_sent_in_order(self, pair):
        mac_a, mac_b, sched = pair
        got = []
        mac_b.on_data(lambda f: got.append(bytes(f.payload)))
        for i in range(4):
            mac_a.send_data(ADDR_B, b"msg-%d" % i)
        sched.run(0.1)
        assert got == [b"msg-0", b"msg-1", b"msg-2", b"msg-3"]


class TestRetransmission:
    def test_no_ack_exhausts_retries_and_drops(self, pair):
        mac_a, mac_b, sched = pair
        mac_b.stop()  # receiver off: no ACK will ever come
        results = []
        seq = mac_a.send_data(
            ADDR_B, b"void",
            on_result=lambda s, ok: results.append((s, ok)),
        )
        sched.run(0.5)
        assert results == [(seq, False)]
        assert mac_a.stats.retries == MAX_FRAME_RETRIES
        assert mac_a.stats.ack_timeouts == MAX_FRAME_RETRIES + 1
        assert mac_a.stats.drops == 1
        # One initial attempt plus every retry went out on the air.
        assert mac_a.stats.sent_frames == MAX_FRAME_RETRIES + 1

    def test_lost_ack_triggers_retransmission_and_reack(
        self, quiet_medium, scheduler
    ):
        """Drop ACK deliveries to the sender for a while: the sender must
        retransmit, and the receiver must re-acknowledge the duplicate
        (ACK-before-duplicate-rejection) so the exchange converges."""

        class AckLoss(FaultInjector):
            """Loses every delivery to radio "a" ending in the first 4 ms."""

            def delivery_count(self, radio, tx):
                if radio.name == "a" and tx.end_time < 4e-3:
                    return 0
                return super().delivery_count(radio, tx)

        quiet_medium.install_fault_injector(AckLoss(FaultPlan()))
        radio_a = Dot15d4Radio(
            quiet_medium, name="a", position=(0, 0), rng=np.random.default_rng(1)
        )
        radio_b = Dot15d4Radio(
            quiet_medium, name="b", position=(2, 0), rng=np.random.default_rng(2)
        )
        mac_a = MacService(radio_a, address=ADDR_A)
        mac_b = MacService(radio_b, address=ADDR_B)
        mac_a.start()
        mac_b.start()
        got = []
        mac_b.on_data(got.append)
        results = []
        mac_a.send_data(
            ADDR_B, b"persist",
            on_result=lambda s, ok: results.append(ok),
        )
        scheduler.run(0.5)
        assert results == [True]
        assert mac_a.stats.retries >= 1
        # The duplicate data frame was re-acked, not silently swallowed.
        assert mac_b.stats.duplicates >= 1
        assert mac_b.stats.acks_sent >= 2
        # The application saw the payload exactly once.
        assert len(got) == 1

    def test_ack_success_needs_no_retry(self, pair):
        mac_a, mac_b, sched = pair
        results = []
        mac_a.send_data(
            ADDR_B, b"ok", on_result=lambda s, ok: results.append(ok)
        )
        sched.run(0.05)
        assert results == [True]
        assert mac_a.stats.retries == 0
        assert mac_a.stats.ack_timeouts == 0

    def test_stats_counters_start_clean(self, pair):
        mac_a, _, _ = pair
        stats = mac_a.stats
        assert stats.retries == 0
        assert stats.csma_backoffs == 0
        assert stats.channel_access_failures == 0
        assert stats.ack_timeouts == 0
        assert stats.drops == 0
