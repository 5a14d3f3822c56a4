"""The degradation ladder: strict shed order, hysteresis, admission."""

from repro.serve import SHED_LEVEL_NAMES, DegradeLadder
from repro.serve.codec import frame_record, notice_record, trace_record
from repro.serve.shed import DOWNSAMPLE_KEEP_EVERY


def _valid(seq=0):
    return frame_record(seq, 0.0, 14, b"\x01\x02", fcs_ok=True)


def _corrupt(seq=0):
    return frame_record(seq, 0.0, 14, b"\x01\x02", fcs_ok=False)


def _trace():
    return trace_record({"event": "rx.decode", "seq": 1})


class TestLevels:
    def test_steps_up_through_every_cleared_threshold(self):
        ladder = DegradeLadder()
        assert ladder.update(0.3) is None
        assert ladder.update(0.5) == 1
        assert ladder.update(0.8) == 2
        # A pressure spike clears two thresholds at once.
        ladder2 = DegradeLadder()
        assert ladder2.update(0.95) == 3

    def test_hysteresis_prevents_flapping(self):
        ladder = DegradeLadder()
        ladder.update(0.55)
        assert ladder.level == 1
        # Oscillating just below the threshold does not step down...
        assert ladder.update(0.45) is None
        assert ladder.level == 1
        # ...until pressure falls past threshold - hysteresis.
        assert ladder.update(0.30) == 0

    def test_level_names_cover_every_level(self):
        assert len(SHED_LEVEL_NAMES) == 4
        assert SHED_LEVEL_NAMES[0] == "none"


class TestShedOrder:
    """The invariant: protocol data is never shed before observability."""

    def test_level_zero_admits_everything(self):
        ladder = DegradeLadder()
        for record in (_valid(), _corrupt(), _trace(), notice_record("x")):
            admitted, shed_class = ladder.admit(record)
            assert admitted and shed_class is None

    def test_level_one_sheds_only_trace(self):
        ladder = DegradeLadder()
        ladder.update(0.5)
        assert ladder.admit(_trace()) == (False, "trace")
        assert ladder.admit(_valid())[0]
        assert ladder.admit(_corrupt())[0]
        assert ladder.shed == {"trace": 1, "corrupt": 0, "downsample": 0}

    def test_level_two_adds_corrupt_frames(self):
        ladder = DegradeLadder()
        ladder.update(0.8)
        assert ladder.admit(_trace()) == (False, "trace")
        assert ladder.admit(_corrupt()) == (False, "corrupt")
        assert ladder.admit(_valid())[0]

    def test_level_three_downsamples_valid_frames(self):
        assert DOWNSAMPLE_KEEP_EVERY == 4
        ladder = DegradeLadder()
        ladder.update(1.0)
        verdicts = [ladder.admit(_valid(i))[0] for i in range(8)]
        # One in DOWNSAMPLE_KEEP_EVERY admitted, deterministically.
        assert verdicts == [True, False, False, False] * 2
        assert ladder.shed["downsample"] == 6

    def test_control_records_always_pass(self):
        ladder = DegradeLadder()
        ladder.update(1.0)
        # Notices are how degradation is announced; shedding them would
        # hide the degradation itself.
        assert ladder.admit(notice_record("shed-level", level=3))[0]
        assert ladder.admit({"type": "heartbeat"})[0]
        assert ladder.admit({"type": "bye"})[0]

    def test_valid_frames_never_shed_while_trace_is_delivered(self):
        """Sweep every pressure; at no point may a valid frame be shed
        while a trace record would still have been admitted."""
        for pressure in [p / 100 for p in range(0, 101, 5)]:
            ladder = DegradeLadder()
            ladder.update(pressure)
            trace_admitted = ladder.admit(_trace())[0]
            corrupt_admitted = ladder.admit(_corrupt())[0]
            valid_shed = not ladder.admit(_valid())[0]
            if valid_shed:
                assert not trace_admitted
                assert not corrupt_admitted
            if corrupt_admitted:
                # Corrupt frames outrank trace in the shed order too.
                pass
            if not trace_admitted:
                continue
            assert corrupt_admitted  # trace sheds strictly first
