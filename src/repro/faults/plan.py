"""Fault plans: declarative, seedable descriptions of channel chaos.

A :class:`FaultPlan` is pure data — frozen dataclasses, no radio state — so
it can be logged, compared, and replayed.  Determinism contract: the same
plan (including its ``seed``) applied to the same simulation produces
bit-identical results, because every stochastic choice the injector makes
is drawn from a stream seeded by ``plan.seed`` (the burst stream, or one
per receiver; :mod:`repro.faults.injector` states the contract).

Count-based faults (``every_nth``) index deterministic per-kind counters
kept by the injector; time-based faults (windows, bursts, CFO steps) are
expressed in absolute simulation seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dot15d4.channels import channel_frequency_hz

__all__ = [
    "DropoutWindow",
    "CollisionBurst",
    "CfoStep",
    "CaptureTruncation",
    "SampleDrops",
    "DeliveryDuplication",
    "FaultPlan",
    "named_profile",
    "profile_names",
    "BURST_POWER_DBM",
]

#: Transmit power of every scripted jamming burst.
BURST_POWER_DBM = 10.0


@dataclass(frozen=True)
class DropoutWindow:
    """Receiver deafness: deliveries ending inside [start_s, end_s) are
    lost, at every receiver.

    Models a radio mid-retune, a saturated front end, or a firmware stall.
    """

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"dropout window ends ({self.end_s}) before it starts "
                f"({self.start_s})"
            )


@dataclass(frozen=True)
class CollisionBurst:
    """A scripted jamming burst put on the air as a real transmission.

    Because the burst enters the medium's transmission list, it is visible
    both to receivers (it corrupts overlapping captures) *and* to CSMA-CA
    clear-channel assessment — which is what lets the chaos tests prove the
    MAC defers around it.

    It is sent at :data:`BURST_POWER_DBM`.  ``period_s``/``count`` repeat
    the burst; ``count`` bounds repetition so a plan is always finite.
    """

    start_s: float
    duration_s: float
    center_hz: float = channel_frequency_hz(14)
    period_s: Optional[float] = None
    count: int = 1


@dataclass(frozen=True)
class CfoStep:
    """From *at_s* onward, receivers see an extra LO offset of *offset_hz*.

    A sequence of steps models a drifting or temperature-stepped crystal;
    the injector applies the most recent step at each capture.
    """

    at_s: float
    offset_hz: float


@dataclass(frozen=True)
class CaptureTruncation:
    """Every *every_nth* capture keeps only the leading *keep_fraction*.

    The tail samples are zeroed — the shape of a capture buffer that
    filled up, or an RX window the firmware closed early.
    """

    every_nth: int = 2
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_every_nth(self.every_nth)
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must lie in [0, 1], got {self.keep_fraction}"
            )


#: Which of a receiver's captures :class:`SampleDrops` hits: every
#: second one.
SAMPLE_DROPS_EVERY_NTH = 2


@dataclass(frozen=True)
class SampleDrops:
    """Every :data:`SAMPLE_DROPS_EVERY_NTH`-th capture loses *num_gaps*
    windows of *gap_samples*.

    Gap positions are drawn from the plan RNG — deterministic for a given
    seed.  Models DMA underruns / sample clock glitches.
    """

    num_gaps: int = 3
    gap_samples: int = 64

    def __post_init__(self) -> None:
        if self.num_gaps < 0 or self.gap_samples < 0:
            raise ValueError(
                f"num_gaps and gap_samples must be >= 0, got "
                f"{self.num_gaps} and {self.gap_samples}"
            )


@dataclass(frozen=True)
class DeliveryDuplication:
    """Every *every_nth* delivery is handed to the receiver twice.

    Exercises MAC duplicate rejection the way a real capture replay or a
    correlator double-fire would.
    """

    every_nth: int = 2

    def __post_init__(self) -> None:
        _check_every_nth(self.every_nth)


def _check_every_nth(every_nth: int) -> None:
    if every_nth < 1:
        raise ValueError(f"every_nth must be >= 1, got {every_nth}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seedable chaos description.

    An empty plan (the default) injects nothing; installing it is
    equivalent to running clean.
    """

    seed: int = 0
    name: str = "custom"
    dropouts: Tuple[DropoutWindow, ...] = ()
    bursts: Tuple[CollisionBurst, ...] = ()
    cfo_steps: Tuple[CfoStep, ...] = ()
    cfo_drift_hz_per_s: float = 0.0
    truncation: Optional[CaptureTruncation] = None
    sample_drops: Optional[SampleDrops] = None
    duplication: Optional[DeliveryDuplication] = None

    def is_clean(self) -> bool:
        return not (
            self.dropouts
            or self.bursts
            or self.cfo_steps
            or self.cfo_drift_hz_per_s
            or self.truncation
            or self.sample_drops
            or self.duplication
        )


# ---------------------------------------------------------------------------
# Named profiles
# ---------------------------------------------------------------------------


def _clean(channel: int, seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, name="clean")


def _flaky_rx(channel: int, seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="flaky-rx",
        truncation=CaptureTruncation(every_nth=3, keep_fraction=0.4),
        sample_drops=SampleDrops(num_gaps=4, gap_samples=96),
    )


def _jammer(channel: int, seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="jammer",
        bursts=(
            CollisionBurst(
                start_s=0.5e-3,
                duration_s=1.5e-3,
                center_hz=channel_frequency_hz(channel),
                period_s=10e-3,
                count=200,
            ),
        ),
    )


def _drifting(channel: int, seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="drifting",
        cfo_steps=(CfoStep(at_s=0.0, offset_hz=20e3),),
        cfo_drift_hz_per_s=5e3,
    )


def _dropout(channel: int, seed: int) -> FaultPlan:
    # A 40% duty-cycle square wave of receiver deafness.
    windows = tuple(
        DropoutWindow(start_s=0.010 * k, end_s=0.010 * k + 0.004)
        for k in range(200)
    )
    return FaultPlan(seed=seed, name="dropout", dropouts=windows)


def _harsh(channel: int, seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="harsh",
        dropouts=tuple(
            DropoutWindow(start_s=0.020 * k, end_s=0.020 * k + 0.005)
            for k in range(100)
        ),
        bursts=(
            CollisionBurst(
                start_s=1e-3,
                duration_s=2e-3,
                center_hz=channel_frequency_hz(channel),
                period_s=15e-3,
                count=150,
            ),
        ),
        truncation=CaptureTruncation(every_nth=4, keep_fraction=0.5),
        duplication=DeliveryDuplication(every_nth=5),
    )


_PROFILES = {
    "clean": _clean,
    "flaky-rx": _flaky_rx,
    "jammer": _jammer,
    "drifting": _drifting,
    "dropout": _dropout,
    "harsh": _harsh,
}


def profile_names() -> Tuple[str, ...]:
    """Names accepted by :func:`named_profile` (and the CLI ``--chaos``)."""
    return tuple(sorted(_PROFILES))


def named_profile(name: str, channel: int = 14, seed: int = 0) -> FaultPlan:
    """Build one of the catalogue profiles, targeted at a Zigbee channel."""
    try:
        factory = _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {name!r}; choose from {profile_names()}"
        ) from None
    return factory(channel, seed)
