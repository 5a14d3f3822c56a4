"""Smoke tests for the perf-bench suite (so it can't rot).

Runs every microbenchmark once, at quick-workload size, through the
``python -m benchmarks.perf`` entry point gated against the committed
baseline; validates the ``BENCH_PR9.json`` it writes, and enforces the
acceptance floors on it: the vectorised decoder must be at least 5x the
scalar reference, the cached waveform synthesis at least 3x the direct
modulator, and the wideband sweep must beat the narrowband pipeline
outright even at smoke size.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """The one quick suite run: the CLI, gated against the baseline."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_PR9.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}:{REPO_ROOT}"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "benchmarks.perf",
            "--quick",
            "--output",
            str(out),
            "--baseline",
            str(REPO_ROOT / "benchmarks" / "perf" / "BASELINE.json"),
        ],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )
    return result, out


@pytest.fixture(scope="module")
def quick_records(quick_run):
    """The records of the quick run, read back from its report."""
    result, out = quick_run
    assert out.exists(), result.stderr
    sys.path.insert(0, str(REPO_ROOT))
    try:
        from benchmarks.perf import BenchRecord
    finally:
        sys.path.remove(str(REPO_ROOT))
    report = json.loads(out.read_text())
    return [
        BenchRecord(name=name, **body)
        for name, body in report["benchmarks"].items()
    ]


class TestSuite:
    def test_all_benchmarks_present(self, quick_records):
        names = {record.name for record in quick_records}
        assert names == {
            "decode_throughput_vectorised",
            "modulate_cached",
            "sync_search",
            "compose_capture_latency",
            "table3_cell_wall_clock",
            "table3_sweep_wideband",
            "fleet_medium_scan",
            "fleet_campaign_sharded",
            "fleet_cold_build",
        }

    def test_values_positive(self, quick_records):
        assert all(record.value > 0 for record in quick_records)
        assert all(record.repeats >= 1 for record in quick_records)

    def test_decode_speedup_floor(self, quick_records):
        """Acceptance: vectorised decode ≥5x the scalar reference."""
        decode = next(
            r for r in quick_records if r.name == "decode_throughput_vectorised"
        )
        assert decode.extra["speedup_vs_scalar"] >= 5.0

    def test_modulate_speedup_floor(self, quick_records):
        """Acceptance: cached synthesis ≥3x the direct modulator."""
        modulate = next(
            r for r in quick_records if r.name == "modulate_cached"
        )
        assert modulate.extra["speedup_vs_direct"] >= 3.0

    def test_wideband_sweep_beats_narrowband(self, quick_records):
        """At smoke size the wideband sweep wins by ~2x in isolation, but
        both sides time tens of milliseconds, so allow scheduler noise
        around parity; the ≥5x acceptance floor is recorded by the
        full-size run and enforced by the CI baseline ratio gate."""
        sweep = next(
            r for r in quick_records if r.name == "table3_sweep_wideband"
        )
        assert sweep.extra["speedup_vs_sequential"] >= 0.8
        assert sweep.extra["narrowband_ms_per_frame"] > 0

    def test_fleet_campaign_beats_legacy_dense(self, quick_records):
        """Acceptance: even at smoke size the sharded campaign clearly
        beats the legacy unbounded broadcast medium, and the
        equal-semantics scan curve is recorded for every size."""
        campaign = next(
            r for r in quick_records if r.name == "fleet_campaign_sharded"
        )
        assert campaign.extra["speedup_vs_dense"] >= 2.0
        scan = next(
            r for r in quick_records if r.name == "fleet_medium_scan"
        )
        assert scan.extra["speedup_vs_dense"] > 0
        assert scan.extra["dense_ms_100"] > 0
        assert scan.extra["sharded_ms_100"] > 0

    def test_fleet_records_carry_median_and_min(self, quick_records):
        """The gated fleet records time three repeats; the ungated cold
        build is a median over cleared caches."""
        for name in ("fleet_medium_scan", "fleet_campaign_sharded"):
            record = next(r for r in quick_records if r.name == name)
            assert record.repeats == 3
            assert 0 < record.extra["min_ms"] <= record.extra["median_ms"]
            assert record.value == record.extra["min_ms"]
        cold = next(r for r in quick_records if r.name == "fleet_cold_build")
        assert cold.extra["nodes"] == 208
        assert 0 < cold.extra["min_ms"] <= cold.value

    def test_report_schema(self, quick_records, tmp_path):
        sys.path.insert(0, str(REPO_ROOT))
        try:
            from benchmarks.perf import write_report
        finally:
            sys.path.remove(str(REPO_ROOT))
        path = tmp_path / "BENCH_PR9.json"
        report = write_report(quick_records, str(path), quick=True)
        on_disk = json.loads(path.read_text())
        assert on_disk == report
        assert on_disk["schema"] == "wazabee-bench/1"
        assert on_disk["suite"] == "BENCH_PR9"
        assert on_disk["quick"] is True
        assert set(on_disk["machine"]) == {
            "python",
            "numpy",
            "scipy",
            "cpu_count",
            "platform",
        }
        for body in on_disk["benchmarks"].values():
            assert set(body) == {"metric", "value", "repeats", "extra"}


class TestBaselineGate:
    def test_committed_baseline_is_valid(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "perf" / "BASELINE.json").read_text()
        )
        assert baseline["schema"] == "wazabee-bench/1"
        assert {"decode_throughput_vectorised", "modulate_cached"} <= set(
            baseline["benchmarks"]
        )

    def test_compare_reports_flags_regressions(self, quick_records, tmp_path):
        sys.path.insert(0, str(REPO_ROOT))
        try:
            from benchmarks.perf import compare_reports, write_report
        finally:
            sys.path.remove(str(REPO_ROOT))
        report = write_report(
            quick_records, str(tmp_path / "now.json"), quick=True
        )
        # Against itself: no regression.
        assert compare_reports(report, report) == []
        # Against an inflated baseline: the enforced ratios must trip.
        inflated = json.loads(json.dumps(report))
        for name in ("decode_throughput_vectorised", "modulate_cached"):
            for key, value in inflated["benchmarks"][name]["extra"].items():
                if key.startswith("speedup"):
                    inflated["benchmarks"][name]["extra"][key] = value * 10.0
        regressions = compare_reports(report, inflated)
        assert len(regressions) == 2


class TestCliEntryPoint:
    def test_module_invocation_writes_report(self, quick_run):
        """The gate reads each enforced ratio's median of three readings
        (``benchmarks.perf.harness.median_ratio``)."""
        result, out = quick_run
        assert result.returncode == 0, result.stderr
        assert out.exists()
        assert "wrote" in result.stdout
        assert "vs baseline" in result.stdout
