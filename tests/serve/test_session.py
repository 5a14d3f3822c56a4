"""Subscriber sessions: the three backpressure policies and the ledger."""

import socket
import threading
import time

from repro.serve import SubscriberSession
from repro.serve.codec import decode_jsonl, frame_record, parse_pcap
from tests.serve.sinks import CollectingSink


def _frame(seq):
    return frame_record(seq, seq * 1e-3, 14, bytes([seq & 0xFF, 0x01]), True)


def _session(sink, **kwargs):
    defaults = dict(
        name="t",
        sink=sink,
        fmt="jsonl",
        policy="drop-oldest",
        queue_depth=8,
        heartbeat_s=0.2,
        stall_timeout_s=0.2,
    )
    defaults.update(kwargs)
    session = SubscriberSession(**defaults)
    session.start()
    return session


def _ledger_reconciles(session):
    ledger = session.ledger()
    return (
        ledger["offered"]
        == ledger["delivered"] + ledger["dropped"] + ledger["in_flight"]
    )


class TestDelivery:
    def test_fast_consumer_gets_everything_in_order(self):
        sink = CollectingSink()
        # Ring deep enough to absorb the burst: nothing may be evicted.
        session = _session(sink, queue_depth=64)
        for seq in range(20):
            session.offer(_frame(seq))
        assert session.drain(timeout_s=2.0)
        records = [decode_jsonl(line) for line in sink.lines()]
        frames = [r for r in records if r["type"] == "frame"]
        assert [f["seq"] for f in frames] == list(range(20))
        assert records[-1]["type"] == "bye"
        assert session.close_reason == "drained"
        assert _ledger_reconciles(session)

    def test_pcap_session_writes_header_then_frames_only(self):
        sink = CollectingSink()
        session = _session(sink, fmt="pcap")
        for seq in range(5):
            session.offer(_frame(seq))
        session.offer({"type": "notice", "kind": "drain"})
        session.drain(timeout_s=2.0)
        header, packets = parse_pcap(bytes(sink.data))
        assert header["network"] == 195
        assert len(packets) == 5  # the notice left no bytes

    def test_idle_jsonl_session_emits_heartbeats(self):
        sink = CollectingSink()
        session = _session(sink, heartbeat_s=0.05)
        time.sleep(0.25)
        session.close("done")
        beats = [
            decode_jsonl(line)
            for line in sink.lines()
            if decode_jsonl(line)["type"] == "heartbeat"
        ]
        assert len(beats) >= 2
        assert session.heartbeats_sent >= 2


class TestPolicies:
    def test_drop_oldest_evicts_and_counts(self):
        sink = CollectingSink(stall_event=threading.Event())
        sink.stall_event.set()  # consumer reads nothing
        session = _session(sink, policy="drop-oldest", queue_depth=4)
        for seq in range(20):
            session.offer(_frame(seq))
        assert session.frames_offered == 20
        assert session.frames_dropped >= 16 - 1  # ring depth + one in flight
        sink.stall_event.clear()
        session.drain(timeout_s=2.0)
        ledger = session.ledger()
        assert ledger["offered"] == 20
        assert ledger["in_flight"] == 0
        assert ledger["delivered"] + ledger["dropped"] == 20
        # The newest frames survive under drop-oldest.
        frames = [
            decode_jsonl(line)
            for line in sink.lines()
            if decode_jsonl(line)["type"] == "frame"
        ]
        assert frames[-1]["seq"] == 19

    def test_disconnect_slow_closes_on_overflow(self):
        stall = threading.Event()
        stall.set()
        sink = CollectingSink(stall_event=stall)
        session = _session(sink, policy="disconnect-slow", queue_depth=2)
        for seq in range(10):
            session.offer(_frame(seq))
        stall.clear()
        deadline = time.monotonic() + 2.0
        while not session.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session.closed
        assert session.close_reason == "disconnect-slow"
        assert _ledger_reconciles(session)

    def test_block_policy_delivers_everything_to_a_slow_consumer(self):
        sink = CollectingSink(delay_per_write_s=0.003)
        session = _session(sink, policy="block", queue_depth=2, stall_timeout_s=2.0)
        for seq in range(30):
            session.offer(_frame(seq))
        session.drain(timeout_s=5.0)
        ledger = session.ledger()
        # block never drops while the consumer keeps making progress.
        assert ledger["delivered"] == 30
        assert ledger["dropped"] == 0


class TestFailures:
    def test_sink_error_closes_with_socket_error_reason(self):
        sink = CollectingSink(fail_after=3)
        session = _session(sink, heartbeat_s=0.05)
        for seq in range(10):
            session.offer(_frame(seq))
        deadline = time.monotonic() + 2.0
        while not session.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session.closed
        assert session.close_reason.startswith("socket-error:")
        assert _ledger_reconciles(session)

    def test_timed_out_sink_is_not_written_a_bye(self):
        class TimingOutSink(CollectingSink):
            """Every write times out, as a send to a full socket does."""

            def write(self, data):
                self.writes += 1
                raise socket.timeout("timed out")

        sink = TimingOutSink()
        finished = threading.Event()
        session = _session(sink, on_closed=lambda s, r: finished.set())
        session.offer(_frame(0))
        assert finished.wait(5.0)
        assert session.close_reason == "socket-error:TimeoutError"
        # The frame's write timed out; no bye record followed it.
        assert sink.writes == 1
        assert session.ledger()["dropped"] == 1

    def test_close_lands_queued_frames_on_the_drop_ledger(self):
        stall = threading.Event()
        stall.set()
        sink = CollectingSink(stall_event=stall)
        session = _session(sink, queue_depth=8)
        for seq in range(8):
            session.offer(_frame(seq))
        stall.clear()
        session.close("shutdown")
        ledger = session.ledger()
        assert ledger["in_flight"] == 0
        assert ledger["offered"] == 8
        assert ledger["delivered"] + ledger["dropped"] == 8

    def test_on_closed_callback_fires_exactly_once(self):
        closings = []
        sink = CollectingSink()
        session = _session(sink, on_closed=lambda s, r: closings.append(r))
        session.close("first")
        session.close("second")
        assert len(closings) == 1
