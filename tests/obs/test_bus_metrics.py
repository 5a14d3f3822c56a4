"""Unit tests for the observability primitives: bus, metrics, recorder."""

import io
import json

import pytest

from repro.obs import (
    EVENT_NAMES,
    RX_DECODE,
    TX_FRAME,
    JsonlTraceWriter,
    MetricsRegistry,
    TraceBus,
    TraceRecorder,
    metrics,
    scoped,
    trace_bus,
    write_events_jsonl,
)
from repro.obs.metrics import TIMER_BUCKET_BOUNDS


class TestTraceBus:
    def test_inactive_without_subscribers(self):
        bus = TraceBus()
        assert not bus.active
        bus.emit(TX_FRAME, time=1.0, channel=14)
        with TraceRecorder(bus) as recorder:
            bus.emit(TX_FRAME, time=2.0, channel=14)
        # The first event was dropped before sequencing.
        assert [e.seq for e in recorder.events] == [1]

    def test_events_are_sequenced_in_emission_order(self):
        bus = TraceBus()
        with TraceRecorder(bus) as recorder:
            bus.emit(TX_FRAME, time=0.5, channel=11)
            bus.emit(RX_DECODE, time=0.6, outcome="ok")
        assert [e.seq for e in recorder.events] == [1, 2]
        assert [e.name for e in recorder.events] == [TX_FRAME, RX_DECODE]
        assert recorder.events[0].fields == {"channel": 11}

    def test_unsubscribe_stops_delivery(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        bus.emit(TX_FRAME)
        recorder.close()
        bus.emit(TX_FRAME)
        assert len(recorder) == 1
        assert not bus.active

    def test_event_as_dict_is_flat(self):
        bus = TraceBus()
        with TraceRecorder(bus) as recorder:
            bus.emit(RX_DECODE, time=2.5, outcome="no-sfd", channel=15)
        flat = recorder.as_dicts()[0]
        assert flat == {
            "seq": 1,
            "time": 2.5,
            "event": RX_DECODE,
            "outcome": "no-sfd",
            "channel": 15,
        }

    def test_typed_event_names_registered(self):
        assert {
            "tx.frame",
            "medium.delivery",
            "rx.capture",
            "rx.decode",
            "rx.fcs",
            "mac.retry",
            "fault.injected",
            "attack.stage",
            "firmware.drop",
            "serve.session",
            "serve.shed",
            "serve.stage",
            "fleet.sample",
        } == set(EVENT_NAMES)


class TestScoped:
    def test_scope_swaps_and_restores_current_pair(self):
        outer_bus, outer_metrics = trace_bus(), metrics()
        with scoped() as (bus, registry):
            assert trace_bus() is bus and bus is not outer_bus
            assert metrics() is registry and registry is not outer_metrics
        assert trace_bus() is outer_bus
        assert metrics() is outer_metrics

    def test_nested_scopes_restore_in_order(self):
        with scoped() as (bus1, _):
            with scoped() as (bus2, _):
                assert trace_bus() is bus2
            assert trace_bus() is bus1

    def test_scoped_events_do_not_bleed(self):
        with scoped() as (bus1, _):
            rec1 = TraceRecorder(bus1)
            bus1.emit(TX_FRAME)
        with scoped() as (bus2, _):
            rec2 = TraceRecorder(bus2)
            bus2.emit(TX_FRAME)
            bus2.emit(TX_FRAME)
        assert len(rec1) == 1
        assert len(rec2) == 2


class TestMetricsRegistry:
    def test_counter_create_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        assert registry.counter("a").value == 3

    def test_counter_values_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc(5)
        assert list(registry.counter_values()) == ["alpha", "zeta"]
        assert registry.counter_values() == {"alpha": 5, "zeta": 1}

    def test_gauge_holds_latest_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(7.5)
        assert registry.gauge("depth").value == 7.5

    def test_timer_histogram_and_stats(self):
        registry = MetricsRegistry()
        timer = registry.timer("stage")
        timer.observe(5e-6)   # second bucket (1e-5)
        timer.observe(5e-4)   # fourth bucket (1e-3)
        timer.observe(20.0)   # overflow bucket
        assert timer.count == 3
        assert timer.min_s == 5e-6
        assert timer.max_s == 20.0
        assert timer.mean_s == pytest.approx((5e-6 + 5e-4 + 20.0) / 3)
        assert sum(timer.buckets) == 3
        assert timer.buckets[-1] == 1
        assert len(timer.buckets) == len(TIMER_BUCKET_BOUNDS) + 1

    def test_timer_context_manager_measures_spans(self):
        registry = MetricsRegistry()
        with registry.timer("stage").time():
            pass
        assert registry.timer("stage").count == 1
        assert registry.timer("stage").total_s >= 0.0

    def test_snapshot_separates_deterministic_from_wall_clock(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.timer("t").observe(0.01)
        full = registry.snapshot()
        assert set(full) == {"counters", "gauges", "timers"}
        assert full["counters"] == registry.counter_values() == {"c": 1}

    def test_format_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("frames").inc(4)
        registry.gauge("depth").set(1)
        registry.timer("stage").observe(0.001)
        text = registry.format()
        assert "frames" in text and "depth" in text and "stage" in text


class TestJsonlExport:
    def test_writer_streams_sorted_key_lines(self):
        bus = TraceBus()
        sink = io.StringIO()
        with JsonlTraceWriter(sink, bus) as writer:
            bus.emit(TX_FRAME, time=1.0, channel=14, psdu_bytes=10)
            assert writer.events_written == 1
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == TX_FRAME
        assert list(record) == sorted(record)

    def test_write_events_jsonl_roundtrips(self, tmp_path):
        events = [
            {"seq": 1, "time": 0.0, "event": "tx.frame", "channel": 11},
            {"seq": 2, "time": 0.1, "event": "rx.capture", "bits": 1281},
        ]
        path = tmp_path / "trace.jsonl"
        assert write_events_jsonl(events, str(path)) == 2
        loaded = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert loaded == events


class TestRecorderFilters:
    def test_count_with_field_filters(self):
        bus = TraceBus()
        with TraceRecorder(bus) as recorder:
            bus.emit(RX_DECODE, outcome="ok")
            bus.emit(RX_DECODE, outcome="ok")
            bus.emit(RX_DECODE, outcome="no-sfd")
        assert recorder.count(RX_DECODE) == 3
        assert recorder.count(RX_DECODE, outcome="ok") == 2
        assert recorder.count(RX_DECODE, outcome="truncated") == 0
        assert [e.name for e in recorder.events] == [RX_DECODE] * 3
