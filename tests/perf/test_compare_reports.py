"""Unit tests for the perf-suite baseline comparator.

The regression gate must not pass silently when it cannot compare: an
enforced ratio that the committed baseline lacks (a benchmark newer than
the baseline) is a failure, so a PR that adds one regenerates
BASELINE.json with it.
"""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.harness import (  # noqa: E402
    REGRESSION_FLOOR,
    compare_reports,
)


def report(benches):
    return {"schema": "wazabee-bench/1", "benchmarks": benches}


def bench(value, extra=None):
    return {
        "metric": "ms",
        "value": value,
        "repeats": 3,
        "extra": extra or {},
    }


class TestMissingBaselineEntries:
    def test_bench_absent_from_baseline_fails_the_gate(self, capsys):
        """A benchmark newer than the baseline cannot be gated."""
        current = report(
            {
                "table3_sweep_wideband": bench(
                    0.5, {"speedup_vs_sequential": 8.9}
                )
            }
        )
        regressions = compare_reports(current, report({}))
        assert regressions == [
            "table3_sweep_wideband.speedup_vs_sequential cannot be gated: "
            "missing from the baseline"
        ]
        assert "(new)" in capsys.readouterr().out

    def test_ratio_key_absent_from_baseline_fails_the_gate(self):
        """Baseline has the bench but predates the enforced ratio key."""
        current = report(
            {
                "modulate_cached": bench(1.0, {"speedup_vs_direct": 4.0}),
            }
        )
        baseline = report({"modulate_cached": bench(1.0, {})})
        regressions = compare_reports(current, baseline)
        assert len(regressions) == 1
        assert "modulate_cached.speedup_vs_direct cannot be gated" in (
            regressions[0]
        )

    def test_ratio_key_absent_from_current_report_fails_the_gate(self):
        current = report({"modulate_cached": bench(1.0, {})})
        baseline = report(
            {"modulate_cached": bench(1.0, {"speedup_vs_direct": 4.0})}
        )
        assert compare_reports(current, baseline) == [
            "modulate_cached.speedup_vs_direct cannot be gated: missing "
            "from the current report"
        ]

    def test_baseline_entry_without_extra_block_is_tolerated(self, capsys):
        """Hand-edited or pre-schema baselines may lack 'extra' entirely:
        the comparator reports the missing ratio instead of crashing."""
        current = report(
            {"modulate_cached": bench(1.0, {"speedup_vs_direct": 4.0})}
        )
        baseline = report(
            {"modulate_cached": {"metric": "ms", "value": 1.0, "repeats": 3}}
        )
        regressions = compare_reports(current, baseline)
        assert len(regressions) == 1
        assert "missing from the baseline" in regressions[0]

    def test_baseline_entry_without_value_prints_new(self, capsys):
        ratio = {"speedup_vs_direct": 4.0}
        current = report({"modulate_cached": bench(1.0, ratio)})
        baseline = report({"modulate_cached": {"extra": ratio}})
        assert compare_reports(current, baseline) == []
        assert "(new)" in capsys.readouterr().out


class TestGateStillBites:
    def test_present_ratio_below_floor_regresses(self):
        current = report(
            {"modulate_cached": bench(1.0, {"speedup_vs_direct": 1.0})}
        )
        baseline = report(
            {"modulate_cached": bench(1.0, {"speedup_vs_direct": 4.0})}
        )
        regressions = compare_reports(current, baseline)
        assert len(regressions) == 1
        assert "modulate_cached.speedup_vs_direct" in regressions[0]

    def test_ratio_at_floor_passes(self):
        current = report(
            {
                "modulate_cached": bench(
                    1.0, {"speedup_vs_direct": 4.0 * REGRESSION_FLOOR}
                )
            }
        )
        baseline = report(
            {"modulate_cached": bench(1.0, {"speedup_vs_direct": 4.0})}
        )
        assert compare_reports(current, baseline) == []
