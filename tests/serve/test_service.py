"""End-to-end service tests: chaos, supervision, ledgers, drain, replay.

These are the acceptance tests of the robustness tentpole: a chaos run
with a deliberately slow subscriber must complete without deadlock and
reconcile its frame ledger exactly (produced == delivered + shed +
dropped per session), supervisor restarts must resume the stream without
duplicates, SIGTERM-style drains must leave a loadable spool, and
``--replay`` must reproduce the recorded frame stream byte-for-byte.
"""

import hashlib
import threading
import time

import pytest

from repro.obs import scoped
from repro.serve import ServeConfig, SnifferServer, SpoolReader
from repro.serve.codec import decode_jsonl, encode_jsonl
from repro.serve.shed import SHED_HYSTERESIS, SHED_THRESHOLDS
from repro.serve.source import SimWorldSource
from tests.serve.sinks import CollectingSink

#: Generous wall-clock ceiling: a deadlock anywhere in the pipeline
#: fails these tests by timeout instead of hanging the suite.
RUN_TIMEOUT_S = 60.0


def _config(**overrides):
    defaults = dict(
        socket_path=None,  # in-process sessions only
        frames=30,
        # A seed whose RF world decodes every transmitted frame: the exact
        # produced/delivered ledgers below assume a loss-free channel, and
        # under per-receiver noise streams seed 3 drops one marginal frame
        # (a false sync lock in the pre-frame margin).
        seed=7,
        queue_depth=256,
        stall_timeout_s=2.0,
        idle_timeout_s=0.0,  # tests attach consumers that may start quiet
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _wait_for_source(server, timeout_s=RUN_TIMEOUT_S):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if server.source_finished or server.stop_event.is_set():
            return True
        time.sleep(0.01)
    return False


def _frames_of(sink):
    records = [decode_jsonl(line) for line in sink.lines()]
    return [r for r in records if r["type"] == "frame"]


def _frame_lines_of(sink):
    return [
        line for line in sink.lines() if decode_jsonl(line)["type"] == "frame"
    ]


class TestCleanRun:
    def test_every_produced_frame_reaches_a_fast_subscriber(self):
        with scoped() as (_bus, registry):
            server = SnifferServer(_config(frames=25))
            sink = CollectingSink()
            server.attach_session(sink, fmt="jsonl", name="fast")
            server.start()
            assert _wait_for_source(server)
            ledger = server.shutdown()

            assert ledger["produced"] == 25
            entry = ledger["sessions"]["fast"]
            assert entry["delivered"] == 25
            assert entry["dropped"] == 0
            assert entry["shed"] == 0
            assert entry["in_flight"] == 0
            assert entry["close_reason"] == "drained"
            # The service ledger agrees with the world's own accounting.
            counters = registry.counter_values()
            assert counters["serve.frames.produced"] == 25
            assert counters["firmware.raw_frames"] == 25
            # Delivered seqs are the full production, in order.
            assert [f["seq"] for f in _frames_of(sink)] == list(range(25))
        # Pinned: the first 20 frame records the world publishes at seed 1
        # (times, PSDUs, FCS verdicts, chip distances), so a change to how
        # the bench is built or driven cannot move the stream unnoticed.
        records = []
        with scoped():
            SimWorldSource(
                ServeConfig(seed=1, frames=20, forward_trace=False),
                records.append,
            ).run(threading.Event())
        frames = [r for r in records if r["type"] == "frame"]
        assert len(frames) == 20
        digest = hashlib.sha256(b"".join(map(encode_jsonl, frames)))
        assert digest.hexdigest() == (
            "d21fb1621ce389e373a87aecca9b86f9f3bdf73149db4483aa3213b3ccd7ac5a"
        )

    def test_trace_records_are_forwarded_until_shed(self):
        with scoped():
            server = SnifferServer(_config(frames=10))
            sink = CollectingSink()
            server.attach_session(sink, fmt="jsonl", name="fast")
            server.start()
            assert _wait_for_source(server)
            server.shutdown()
            kinds = {decode_jsonl(line)["type"] for line in sink.lines()}
            assert "trace" in kinds  # the obs firehose reached the stream
            assert "bye" in kinds


class TestChaosStorm:
    """svc-storm: stalls + floods + a mid-stream stage crash, with one
    deliberately slow subscriber — the ISSUE's acceptance scenario."""

    def _run_storm(self):
        with scoped() as (_bus, registry):
            server = SnifferServer(
                _config(
                    frames=60,
                    service_chaos="svc-storm",
                    queue_depth=8,
                )
            )
            slow = CollectingSink(delay_per_write_s=0.004)
            fast = CollectingSink()
            server.attach_session(slow, fmt="jsonl", name="slow")
            server.attach_session(fast, fmt="jsonl", name="fast")
            server.start()
            completed = _wait_for_source(server)
            ledger = server.shutdown()
            return completed, ledger, registry.counter_values(), slow, fast

    def test_storm_completes_without_deadlock_and_ledger_reconciles(self):
        completed, ledger, counters, _slow, fast = self._run_storm()
        assert completed, "service deadlocked under svc-storm"
        produced = ledger["produced"]
        assert produced == 60  # the crash+restart produced nothing twice
        total_shed = sum(ledger["shed"].values())
        for name, entry in ledger["sessions"].items():
            assert entry["in_flight"] == 0, name
            # Exact per-session ledger equality (the acceptance bar):
            # every produced frame is delivered, dropped, or shed.
            if entry["close_reason"] in ("drained",):
                assert (
                    entry["delivered"] + entry["dropped"] + entry["shed"]
                    == produced
                ), name
            # And the session-internal half always balances.
            assert entry["delivered"] + entry["dropped"] == entry["offered"], name
        # The ladder's shed tally is consistent with what sessions saw.
        frame_shed = ledger["shed"]["corrupt"] + ledger["shed"]["downsample"]
        assert frame_shed <= total_shed

    def test_storm_exercises_the_crash_restart_path(self):
        completed, ledger, counters, _slow, _fast = self._run_storm()
        assert completed
        world = ledger["stages"]["world"]
        assert world["crashes"] == 1  # svc-storm crashes at frame 20
        assert world["restarts"] == 1
        assert not world["gave_up"]
        assert counters["faults.service.crashes"] == 1
        assert counters["faults.service.floods"] >= 1

    def test_no_frame_is_produced_twice_across_restarts(self):
        completed, _ledger, _counters, _slow, fast = self._run_storm()
        assert completed
        seqs = [f["seq"] for f in _frames_of(fast)]
        assert len(seqs) == len(set(seqs))
        assert seqs == sorted(seqs)


class TestBackpressure:
    def test_stalled_block_subscriber_is_disconnected_not_deadlocked(self):
        with scoped() as (_bus, registry):
            stall = threading.Event()
            stall.set()
            server = SnifferServer(
                _config(frames=40, queue_depth=4, stall_timeout_s=0.2)
            )
            stuck = CollectingSink(stall_event=stall)
            fast = CollectingSink()
            server.attach_session(stuck, fmt="jsonl", policy="block", name="stuck")
            server.attach_session(fast, fmt="jsonl", name="fast")
            server.start()
            completed = _wait_for_source(server)
            stall.clear()
            ledger = server.shutdown()
            assert completed, "block policy deadlocked the broadcast stage"
            assert ledger["sessions"]["stuck"]["close_reason"] == "stalled"
            assert registry.counter_values()["serve.sessions.overflow"] >= 1
            # The healthy subscriber was unaffected by its slow peer.
            fast_entry = ledger["sessions"]["fast"]
            assert fast_entry["delivered"] + fast_entry["shed"] == 40

    def test_pressure_from_a_stalled_ring_engages_the_shed_ladder(self):
        with scoped():
            stall = threading.Event()
            stall.set()
            server = SnifferServer(
                _config(frames=40, queue_depth=4, stall_timeout_s=30.0)
            )
            stuck = CollectingSink(stall_event=stall)
            fast = CollectingSink()
            server.attach_session(
                stuck, fmt="jsonl", policy="drop-oldest", name="stuck"
            )
            server.attach_session(fast, fmt="jsonl", name="fast")
            server.start()
            assert _wait_for_source(server)
            stall.clear()
            ledger = server.shutdown()
            # The stalled ring pinned pressure at 1.0: trace records were
            # shed (level >= 1), and the shed order held — no valid-frame
            # downsampling without trace shedding first.
            assert ledger["shed"]["trace"] > 0
            if ledger["shed"]["downsample"] > 0:
                assert ledger["shed"]["trace"] > 0
            # Shed-level changes were announced to the healthy subscriber.
            notices = [
                decode_jsonl(line)
                for line in fast.lines()
                if decode_jsonl(line)["type"] == "notice"
            ]
            assert any(n.get("kind") == "shed-level" for n in notices)


class TestDrainAndSpool:
    def test_mid_stream_shutdown_drains_and_finalises_the_spool(self, tmp_path):
        spool_path = str(tmp_path / "live.spool")
        with scoped():
            server = SnifferServer(
                _config(frames=0, rate_fps=200.0, spool_path=spool_path)
            )
            sink = CollectingSink()
            server.attach_session(sink, fmt="jsonl", name="sub")
            server.start()
            # Let it stream, then deliver the SIGTERM-equivalent.
            deadline = time.monotonic() + RUN_TIMEOUT_S
            while server.frames_published < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            ledger = server.shutdown()
            assert ledger["produced"] >= 10
            entry = ledger["sessions"]["sub"]
            assert entry["in_flight"] == 0
            assert entry["delivered"] + entry["dropped"] == entry["offered"]
            # The spool is complete: footer present, count agrees.
            reader = SpoolReader(spool_path)
            assert reader.complete
            assert len(reader.frame_records()) == ledger["produced"]
            assert ledger["spooled"] == ledger["produced"]
            # The subscriber's stream ends with a bye, not a torn record.
            last = decode_jsonl(sink.lines()[-1])
            assert last["type"] == "bye"
            assert last["reason"] == "drained"

    def test_shutdown_is_idempotent(self):
        with scoped():
            server = SnifferServer(_config(frames=5))
            server.start()
            assert _wait_for_source(server)
            first = server.shutdown()
            second = server.shutdown()
            assert second["produced"] == first["produced"]


class TestReplay:
    def test_replay_reproduces_the_frame_stream_byte_for_byte(self, tmp_path):
        spool_path = str(tmp_path / "recorded.spool")
        with scoped():
            server = SnifferServer(
                _config(frames=20, spool_path=spool_path)
            )
            live = CollectingSink()
            server.attach_session(live, fmt="jsonl", name="live")
            server.start()
            assert _wait_for_source(server)
            server.shutdown()
        live_lines = _frame_lines_of(live)
        assert len(live_lines) == 20

        with scoped():
            replayer = SnifferServer(
                ServeConfig(
                    socket_path=None,
                    replay_path=spool_path,
                    idle_timeout_s=0.0,
                )
            )
            replayed = CollectingSink()
            replayer.attach_session(replayed, fmt="jsonl", name="replay")
            replayer.start()
            assert _wait_for_source(replayer)
            replayer.shutdown()
        assert _frame_lines_of(replayed) == live_lines

    def test_replaying_a_missing_spool_fails_loudly(self, tmp_path):
        from repro.errors import SpoolError

        with scoped():
            with pytest.raises(SpoolError):
                SnifferServer(
                    ServeConfig(
                        socket_path=None,
                        replay_path=str(tmp_path / "missing.spool"),
                    )
                )

    def test_torn_tail_spool_replays_surviving_frames_to_a_live_subscriber(
        self, tmp_path
    ):
        """A SIGKILLed producer leaves a footerless spool with a torn final
        line; replay must stream every intact record to a live subscriber
        and deliver a clean bye — the crash must not propagate."""
        spool_path = str(tmp_path / "recorded.spool")
        with scoped():
            server = SnifferServer(_config(frames=20, spool_path=spool_path))
            live = CollectingSink()
            server.attach_session(live, fmt="jsonl", name="live")
            server.start()
            assert _wait_for_source(server)
            server.shutdown()
        live_lines = _frame_lines_of(live)
        assert len(live_lines) == 20

        # Manufacture the crash signature: drop the spool-end footer and
        # tear the final frame record mid-line.
        torn_path = str(tmp_path / "torn.spool")
        lines = open(spool_path, "rb").read().splitlines(keepends=True)
        assert b"spool-end" in lines[-1]
        body, last = lines[1:-1][:-1], lines[1:-1][-1]
        with open(torn_path, "wb") as handle:
            handle.write(lines[0])
            handle.writelines(body)
            handle.write(last[: len(last) // 2])

        reader = SpoolReader(torn_path)
        assert not reader.complete  # crash detected, not an error
        assert len(reader.frame_records()) == 19

        with scoped():
            replayer = SnifferServer(
                ServeConfig(
                    socket_path=None,
                    replay_path=torn_path,
                    idle_timeout_s=0.0,
                )
            )
            replayed = CollectingSink()
            replayer.attach_session(replayed, fmt="jsonl", name="replay")
            replayer.start()
            assert _wait_for_source(replayer)
            ledger = replayer.shutdown()
        # Byte-for-byte the intact prefix of the original stream.
        assert _frame_lines_of(replayed) == live_lines[:19]
        assert ledger["produced"] == 19
        entry = ledger["sessions"]["replay"]
        assert entry["delivered"] == 19
        assert entry["dropped"] == 0
        assert entry["close_reason"] == "drained"


class TestShedRecovery:
    """The ladder must step back DOWN once pressure clears — and the
    delivery ledger must still balance exactly through the whole
    engage/recover cycle under svc-storm chaos."""

    def test_down_transition_recovers_and_ledger_balances(self):
        with scoped():
            stall = threading.Event()
            stall.set()
            server = SnifferServer(
                _config(
                    frames=0,
                    rate_fps=400.0,
                    service_chaos="svc-storm",
                    queue_depth=8,
                    stall_timeout_s=30.0,
                )
            )
            stuck = CollectingSink(stall_event=stall)
            fast = CollectingSink()
            server.attach_session(
                stuck, fmt="jsonl", policy="drop-oldest", name="stuck"
            )
            server.attach_session(fast, fmt="jsonl", name="fast")
            server.start()
            # Phase 1 — the stalled ring pins pressure high: the ladder
            # must engage.
            deadline = time.monotonic() + RUN_TIMEOUT_S
            while (
                server.ladder.level == 0 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.ladder.level >= 1, "ladder never engaged"
            engaged_frames = server.frames_published
            # Phase 2 — clear the stall; the ring drains, pressure falls
            # below threshold − hysteresis, and the ladder must step down.
            stall.clear()
            while (
                server.ladder.level > 0 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.ladder.level == 0, "ladder never recovered"
            # Phase 3 — let frames flow in the recovered state.
            target = server.frames_published + 20
            while (
                server.frames_published < target
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            ledger = server.shutdown()

        # (The final ledger level is whatever the last pressure sample
        # dictated — svc-storm may re-engage during the drain burst; the
        # recovery itself was asserted in phase 2 above.)
        produced = ledger["produced"]
        assert produced > engaged_frames
        # Exact delivery ledger balance, per session, through the whole
        # engage/recover cycle: every produced frame is delivered,
        # dropped, or shed — nothing double-counted, nothing lost.
        for name, entry in ledger["sessions"].items():
            assert entry["in_flight"] == 0, name
            assert entry["delivered"] + entry["dropped"] == entry["offered"], name
            if entry["close_reason"] == "drained":
                assert (
                    entry["delivered"] + entry["dropped"] + entry["shed"]
                    == produced
                ), name

        # The healthy subscriber saw both announcements, and the down
        # announcement respected the hysteresis band: pressure had to
        # fall below (threshold − hysteresis) before the level dropped.
        notices = [
            decode_jsonl(line)
            for line in fast.lines()
            if decode_jsonl(line)["type"] == "notice"
        ]
        shed_notes = [n for n in notices if n.get("kind") == "shed-level"]
        levels = [n["level"] for n in shed_notes]
        assert max(levels) >= 1
        down_notes = [
            note
            for prev, note in zip(shed_notes, shed_notes[1:])
            if note["level"] < prev["level"]
        ]
        assert down_notes, "no down-transition was announced"
        for note in down_notes:
            # Stepping down to `level` means pressure cleared the next
            # threshold up by at least the hysteresis margin.
            assert note["pressure"] < (
                SHED_THRESHOLDS[note["level"]] - SHED_HYSTERESIS
            )
        # Valid frames flowed again after recovery: frame records exist
        # after the final down-transition announcement.
        lines = fast.lines()
        last_down_idx = max(
            i
            for i, line in enumerate(lines)
            if decode_jsonl(line).get("kind") == "shed-level"
            and decode_jsonl(line)["level"] == down_notes[-1]["level"]
        )
        tail_frames = [
            decode_jsonl(line)
            for line in lines[last_down_idx + 1 :]
            if decode_jsonl(line)["type"] == "frame"
        ]
        assert tail_frames, "no frames delivered after recovery"
