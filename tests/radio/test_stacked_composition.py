"""Composing a transmission's receivers as one stack equals composing
each of them alone.

``RfMedium.compose_capture`` composes the captures of K receivers into a
``(K, N)`` stack in one pass: every row draws its shadowing, interferer
and noise values from its own stream in the order composing it alone
would, and adds each transmission in identifier order.  Every test here
composes a stack on one medium and the same K captures one at a time, by
the per-receiver reference in ``tests/radio/delivery_oracle.py``, on a
fresh medium built from the same seed, and compares them byte for byte;
fault transforms included, and a rolled-back row must leave its
receiver's streams as if it had never been composed.
"""

import numpy as np
import pytest

from repro.dsp.signal import IQSignal
from repro.faults.injector import FaultInjector
from repro.faults.plan import named_profile
from repro.radio import RfMedium, Scheduler, ShardedRfMedium, Transceiver
from repro.radio.interference import WifiInterferer
from repro.radio.medium import PropagationModel, _Row
from tests.radio.delivery_oracle import compose_capture

SAMPLE_RATE = 4e6
#: Two tunings 1 MHz apart: each hears the other's transmissions.
TUNINGS = (2405e6, 2406e6)
CUTOFF_M = 30.0
#: The captured window: both transmissions overlap it.
START, END = 0.0, 160e-6


def _tone(num: int, f_hz: float, center: float) -> IQSignal:
    n = np.arange(num)
    return IQSignal(np.exp(2j * np.pi * f_hz * n / SAMPLE_RATE), SAMPLE_RATE, center)


def _world(medium_cls, chaos=None, shadowing_db=0.0, wifi=False):
    """Six receivers on a line, two transmitters whose reach (the range
    cutoff) overlaps only in the middle rows; the second starts later."""
    scheduler = Scheduler()
    medium = medium_cls(
        scheduler,
        sample_rate=SAMPLE_RATE,
        seed=11,
        range_cutoff_m=CUTOFF_M,
        propagation=PropagationModel(shadowing_sigma_db=shadowing_db),
        interferers=[WifiInterferer(channel=1, duty_cycle=1.0)] if wifi else (),
    )
    if chaos is not None:
        medium.install_fault_injector(
            FaultInjector(named_profile(chaos, channel=11, seed=5))
        )
    near = Transceiver(medium, "near", position=(0.0, 0.0), tuned_hz=TUNINGS[0])
    far = Transceiver(medium, "far", position=(45.0, 0.0), tuned_hz=TUNINGS[0])
    receivers = [
        Transceiver(
            medium,
            f"rx-{i}",
            position=(10.0 * i, 1.0),
            tuned_hz=TUNINGS[i % 2],
        )
        for i in range(6)
    ]
    near.transmit(_tone(480, 100e3, TUNINGS[0]))
    scheduler.schedule_at(
        40e-6, lambda: far.transmit(_tone(400, -150e3, TUNINGS[0]))
    )
    scheduler.run(50e-6)
    return medium, receivers


def _alone(medium, radios):
    """Each receiver's capture composed on its own, fault-transformed."""
    captures = []
    for radio in radios:
        capture = compose_capture(medium, radio, START, END)
        if medium.fault_injector is not None:
            capture = medium.fault_injector.transform_capture(
                radio, capture, START
            )
        captures.append(capture.samples.tobytes())
    return captures


def _stacked(medium, radios):
    rows = [_Row(radio) for radio in radios]
    block = np.zeros((len(rows), medium._window_samples(START, END)), complex)
    medium._compose_rows(rows, START, END, block)
    return rows


MEDIA = pytest.mark.parametrize("medium_cls", [RfMedium, ShardedRfMedium])


@MEDIA
def test_candidate_sets_differ_across_rows(medium_cls):
    medium, radios = _world(medium_cls)
    mixed = [
        sorted(
            tx.identifier
            for tx in medium._transmissions
            if medium._mixes(radio, tx, START, END)
        )
        for radio in radios
    ]
    # The first rows hear only the near transmitter, the last only the
    # far one, the middle rows both.
    assert mixed[0] == [0] and mixed[-1] == [1] and mixed[2] == [0, 1]


@MEDIA
@pytest.mark.parametrize("shadowing_db, wifi", [(0.0, False), (4.0, True)])
def test_stack_equals_captures_composed_alone(medium_cls, shadowing_db, wifi):
    medium, radios = _world(medium_cls, shadowing_db=shadowing_db, wifi=wifi)
    fresh, fresh_radios = _world(medium_cls, shadowing_db=shadowing_db, wifi=wifi)
    for _round in range(2):
        stack = medium.compose_capture(radios, START, END)
        assert [c.samples.tobytes() for c in stack] == _alone(fresh, fresh_radios)


@MEDIA
def test_stack_fills_the_given_block(medium_cls):
    medium, radios = _world(medium_cls, wifi=True)
    fresh, fresh_radios = _world(medium_cls, wifi=True)
    block = np.zeros((len(radios), medium._window_samples(START, END)), complex)
    medium.compose_capture(radios, START, END, out=block)
    assert [row.tobytes() for row in block] == _alone(fresh, fresh_radios)


@MEDIA
@pytest.mark.parametrize("chaos", ["flaky-rx", "harsh"])
def test_fault_transformed_rows_equal_captures_composed_alone(medium_cls, chaos):
    medium, radios = _world(medium_cls, chaos=chaos, shadowing_db=3.0, wifi=True)
    fresh, fresh_radios = _world(
        medium_cls, chaos=chaos, shadowing_db=3.0, wifi=True
    )
    # Enough captures per receiver for every every-nth fault to strike.
    for _round in range(4):
        rows = _stacked(medium, radios)
        assert [row.capture.samples.tobytes() for row in rows] == _alone(
            fresh, fresh_radios
        )
    stats = medium.fault_injector.stats
    assert stats.captures_truncated and (
        chaos == "harsh" or stats.captures_sample_dropped
    )


@MEDIA
def test_rolled_back_row_leaves_its_streams_never_composed(medium_cls):
    medium, radios = _world(medium_cls, chaos="flaky-rx", wifi=True)
    fresh, fresh_radios = _world(medium_cls, chaos="flaky-rx", wifi=True)
    # The second capture of each receiver takes the sample drops, which
    # draw from its fault stream.
    _stacked(medium, radios)
    _alone(fresh, fresh_radios)
    rows = _stacked(medium, radios)
    target, fresh_target = radios[2], fresh_radios[2]
    medium._rollback(rows[2])
    assert (
        medium._rx_stream(target).bit_generator.state
        == fresh._rx_stream(fresh_target).bit_generator.state
    )
    assert medium.fault_injector.checkpoint(
        target
    ) == fresh.fault_injector.checkpoint(fresh_target)
    # Composed again alone, the row is the capture it was in the stack.
    again = _stacked(medium, [target])[0]
    assert again.capture.samples.tobytes() == rows[2].capture.samples.tobytes()


def test_repeated_radio_is_refused():
    medium, radios = _world(RfMedium)
    with pytest.raises(ValueError, match="distinct"):
        medium.compose_capture([radios[0], radios[1], radios[0]], START, END)
