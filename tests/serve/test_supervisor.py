"""Stage supervision: restart with backoff, give-up, session health."""

import threading
import time

from repro.obs import scoped
from repro.serve import BoundedRing
from repro.serve.supervisor import SupervisedStage, Supervisor, monitor_sessions


class TestRestarts:
    def test_clean_return_ends_the_stage_without_restart(self):
        with scoped():
            runs = []
            stop = threading.Event()
            stage = SupervisedStage("once", lambda _s: runs.append(1), stop)
            stage.start()
            stage.join(timeout_s=2.0)
            assert runs == [1]
            assert stage.stats.crashes == 0
            assert stage.stats.restarts == 0

    def test_crashing_stage_restarts_until_it_recovers(self):
        with scoped() as (_bus, registry):
            attempts = []
            stop = threading.Event()

            def flaky(_stop):
                attempts.append(1)
                if len(attempts) < 3:
                    raise RuntimeError("boom")

            stage = SupervisedStage(
                "flaky", flaky, stop, max_restarts=5, backoff_s=0.01
            )
            stage.start()
            stage.join(timeout_s=5.0)
            assert len(attempts) == 3
            assert stage.stats.crashes == 2
            assert stage.stats.restarts == 2
            assert not stage.stats.gave_up
            counters = registry.counter_values()
            assert counters["serve.stage.crash"] == 2
            assert counters["serve.stage.restart"] == 2

    def test_stage_gives_up_after_max_restarts_and_reports_fatal(self):
        with scoped():
            fatals = []
            stop = threading.Event()

            def doomed(_stop):
                raise RuntimeError("always")

            stage = SupervisedStage(
                "doomed",
                doomed,
                stop,
                max_restarts=2,
                backoff_s=0.01,
                on_fatal=lambda name, exc: fatals.append((name, str(exc))),
            )
            stage.start()
            stage.join(timeout_s=5.0)
            assert stage.stats.gave_up
            assert stage.stats.crashes == 3  # initial + 2 restarts
            assert fatals == [("doomed", "always")]
            assert "RuntimeError" in stage.stats.last_error

    def test_backoff_grows_exponentially_and_caps(self):
        with scoped():
            stop = threading.Event()
            stage = SupervisedStage(
                "x", lambda _s: None, stop, backoff_s=0.05, backoff_cap_s=0.2
            )
            # The delay formula the loop uses, probed directly.
            delays = [
                min(stage._backoff_cap_s, stage._backoff_s * (2 ** (n - 1)))
                for n in range(1, 5)
            ]
            assert delays == [0.05, 0.1, 0.2, 0.2]

    def test_shutdown_interrupts_the_backoff_wait(self):
        with scoped():
            stop = threading.Event()

            def crasher(_stop):
                raise RuntimeError("boom")

            stage = SupervisedStage(
                "slow-backoff", crasher, stop, max_restarts=50, backoff_s=5.0
            )
            stage.start()
            time.sleep(0.05)
            stop.set()
            stage.join(timeout_s=2.0)
            assert not stage.alive

    def test_supervisor_tracks_stage_stats(self):
        with scoped():
            stop = threading.Event()
            supervisor = Supervisor(stop)
            supervisor.spawn("a", lambda _s: None)
            supervisor.join_all(2.0)
            stats = supervisor.stats()
            assert stats["a"]["starts"] == 1
            assert stats["a"]["gave_up"] is False


class _FakeSession:
    """Just enough surface for monitor_sessions."""

    def __init__(self, depth=2):
        self.ring = BoundedRing(depth)
        self.closed = False
        self.records_delivered = 0
        self.last_progress = time.monotonic()
        self.close_reasons = []

    def request_disconnect(self, reason):
        self.close_reasons.append(("request", reason))

    def close(self, reason):
        self.closed = True
        self.close_reasons.append(("close", reason))


class TestMonitor:
    def _run_monitor(self, session, stall_s, idle_s, run_for_s):
        stop = threading.Event()
        thread = threading.Thread(
            target=monitor_sessions,
            args=(lambda: [session], stop),
            kwargs=dict(stall_timeout_s=stall_s, idle_timeout_s=idle_s),
        )
        thread.start()
        time.sleep(run_for_s)
        stop.set()
        thread.join(timeout=2.0)

    def test_full_ring_with_no_progress_is_stalled(self):
        with scoped() as (_bus, registry):
            session = _FakeSession(depth=1)
            session.ring.try_push("queued")
            session.last_progress = time.monotonic() - 10.0
            self._run_monitor(session, stall_s=0.05, idle_s=0, run_for_s=0.3)
            assert session.closed
            assert ("close", "stalled") in session.close_reasons
            assert registry.counter_values()["serve.sessions.stalled"] == 1

    def test_consumer_that_never_reads_is_idle_closed(self):
        with scoped() as (_bus, registry):
            session = _FakeSession()
            session.last_progress = time.monotonic() - 10.0
            self._run_monitor(session, stall_s=5.0, idle_s=0.05, run_for_s=0.3)
            assert session.closed
            assert ("close", "idle") in session.close_reasons
            assert registry.counter_values()["serve.sessions.idle_closed"] == 1

    def test_healthy_session_is_left_alone(self):
        with scoped():
            session = _FakeSession()
            session.records_delivered = 5
            self._run_monitor(session, stall_s=0.05, idle_s=0.05, run_for_s=0.2)
            assert not session.closed
