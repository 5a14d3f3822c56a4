"""Tests for fault plans and the named chaos profile catalogue."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot15d4.channels import channel_frequency_hz
from repro.faults import (
    CaptureTruncation,
    CollisionBurst,
    DeliveryDuplication,
    DropoutWindow,
    FaultPlan,
    SampleDrops,
    named_profile,
    profile_names,
)
from repro.faults.injector import _DropoutIndex


class TestFaultPlan:
    def test_default_plan_is_clean(self):
        assert FaultPlan().is_clean()

    def test_any_fault_makes_plan_dirty(self):
        plan = FaultPlan(dropouts=(DropoutWindow(0.0, 1.0),))
        assert not plan.is_clean()
        assert not FaultPlan(cfo_drift_hz_per_s=1.0).is_clean()

    def test_plan_is_frozen(self):
        plan = FaultPlan()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 5


def _covers(window: DropoutWindow, time: float) -> bool:
    """The one-window rule the dropout index must agree with."""
    return window.start_s <= time < window.end_s


class TestDropoutWindow:
    def test_covers_inside_half_open_interval(self):
        index = _DropoutIndex([DropoutWindow(start_s=1.0, end_s=2.0)])
        assert index.covers(1.0)
        assert index.covers(1.5)
        assert not index.covers(2.0)
        assert not index.covers(0.9)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: DeliveryDuplication(every_nth=0),
            lambda: DeliveryDuplication(every_nth=-2),
            lambda: CaptureTruncation(every_nth=0),
            lambda: CaptureTruncation(every_nth=-2),
        ],
    )
    def test_every_nth_below_one_rejected(self, build):
        with pytest.raises(ValueError, match="every_nth"):
            build()

    def test_window_ending_before_start_rejected(self):
        with pytest.raises(ValueError, match="before it starts"):
            DropoutWindow(start_s=2.0, end_s=1.0)
        # An empty window is legal: it covers nothing.
        empty = _DropoutIndex([DropoutWindow(start_s=1.0, end_s=1.0)])
        assert not empty.covers(1.0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_keep_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="keep_fraction"):
            CaptureTruncation(keep_fraction=fraction)

    def test_keep_fraction_bounds_accepted(self):
        CaptureTruncation(keep_fraction=0.0)
        CaptureTruncation(keep_fraction=1.0)

    @pytest.mark.parametrize(
        "kwargs", [dict(num_gaps=-1), dict(gap_samples=-1)]
    )
    def test_negative_gaps_rejected(self, kwargs):
        with pytest.raises(ValueError, match="num_gaps"):
            SampleDrops(**kwargs)


@st.composite
def _windows(draw):
    """Overlapping windows on a coarse grid (shared endpoints exercise the
    half-open boundaries)."""
    windows = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 20)) / 4
        length = draw(st.integers(0, 12)) / 4
        windows.append(DropoutWindow(start, start + length))
    return windows


class TestDropoutIndex:
    """The bisected index against the window-by-window ``_covers`` scan."""

    @given(
        windows=_windows(),
        times=st.lists(st.integers(-1, 34).map(lambda t: t / 4), max_size=20),
    )
    def test_index_equals_covers_scan(self, windows, times):
        index = _DropoutIndex(windows)
        for time in times:
            expected = any(_covers(w, time) for w in windows)
            assert index.covers(time) == expected

    def test_nested_windows(self):
        # A long window followed by a short one inside it: the running
        # maximum of the ends keeps the long one's reach.
        windows = [DropoutWindow(0.0, 10.0), DropoutWindow(2.0, 3.0)]
        index = _DropoutIndex(windows)
        assert index.covers(5.0)
        assert not index.covers(10.0)


class TestProfiles:
    def test_catalogue_names(self):
        names = profile_names()
        assert names == tuple(sorted(names))
        for expected in ("clean", "dropout", "drifting", "flaky-rx", "harsh", "jammer"):
            assert expected in names

    def test_every_profile_builds(self):
        for name in profile_names():
            plan = named_profile(name, channel=20, seed=3)
            assert plan.name == name
            assert plan.seed == 3

    def test_clean_profile_is_clean(self):
        assert named_profile("clean").is_clean()

    def test_harsh_profile_is_not_clean(self):
        assert not named_profile("harsh").is_clean()

    def test_jammer_targets_requested_channel(self):
        plan = named_profile("jammer", channel=22)
        assert plan.bursts
        assert plan.bursts[0].center_hz == channel_frequency_hz(22)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            named_profile("nope")

    def test_burst_repetition_is_bounded(self):
        burst = CollisionBurst(start_s=0.0, duration_s=1e-3, period_s=1e-2, count=7)
        assert burst.count == 7
