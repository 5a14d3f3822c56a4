"""Transmission-major delivery against the per-delivery oracle.

The medium delivers each transmission once, to all of its receivers
together (``RfMedium._deliver``).  Its contract is that every receiver
gets exactly what delivering to one receiver per event gave it:
``tests/radio/delivery_oracle.py`` keeps that implementation, and each
test here runs one world both ways and compares captures bytewise, trace
event sequences and outcomes for equality.  The worlds are built to hit
the hazards of delivering together: a hand-out that transmits into the
pending captures or changes a pending receiver, repeated receivers,
faulted captures and a battery that dies mid-stack.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.chips.rzusbstick import Dot15d4Radio
from repro.dot15d4.frames import Address, build_data
from repro.dot15d4.mac import MacService
from repro.dsp.signal import IQSignal
from repro.faults import injector as injector_module
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CaptureTruncation,
    CfoStep,
    DeliveryDuplication,
    FaultPlan,
    SampleDrops,
)
from repro.obs import TraceBus, TraceRecorder, scoped
from repro.radio import (
    PropagationModel,
    RfMedium,
    Scheduler,
    ShardedRfMedium,
    Transceiver,
)
from repro.zigbee.energy import Battery
from tests.golden import generate
from tests.radio.delivery_oracle import per_delivery

SAMPLE_RATE = 4e6
CHANNEL_HZ = 2405e6


#: Shadowing draws once per transmission mixed into a capture, so a
#: capture recomposed with one more transmission in it advances its
#: receiver's stream further.
MEDIUM = dict(
    sample_rate=SAMPLE_RATE,
    seed=3,
    range_cutoff_m=20.0,
    propagation=PropagationModel(shadowing_sigma_db=2.0),
)


def _dense(scheduler):
    return RfMedium(scheduler, **MEDIUM)


def _sharded(scheduler):
    return ShardedRfMedium(scheduler, **MEDIUM)


MEDIA = [pytest.param(_dense, id="dense"), pytest.param(_sharded, id="sharded")]


def _events(recorder):
    return [(e.name, e.time, sorted(e.fields.items())) for e in recorder.events]


def _counters(registry):
    """Every counter but the scheduler's event count: delivering together
    runs one event per transmission instead of one per receiver."""
    counters = registry.counter_values()
    assert counters.pop("scheduler.events") > 0
    return counters


def _both(world, monkeypatch):
    """*world*'s outcome delivered together, the oracle's, and how many
    stacked rows were rolled back to the one-row path."""
    rollbacks = []
    original = RfMedium._rollback

    def counted(medium, row):
        rollbacks.append(row.radio.name)
        original(medium, row)

    monkeypatch.setattr(RfMedium, "_rollback", counted)
    together = world()
    with per_delivery():
        alone = world()
    return together, alone, rollbacks


def _tone(tone: int, samples: int = 600, center: float = CHANNEL_HZ) -> IQSignal:
    n = np.arange(samples)
    f = 60e3 * (tone + 1)
    return IQSignal(
        np.exp(2j * np.pi * f * n / SAMPLE_RATE) * (0.4 + 0.1 * tone),
        SAMPLE_RATE,
        center,
    )


class _Recorder:
    """A stacked receiver whose "decode" is its filtered row's bytes.

    Every capture it is handed — from a stack or one at a time — lands in
    *log*; *act* (optional) runs after each hand-out, as a handler that
    transmits or reconfigures radios would.
    """

    def __init__(self, radio, log, act=None):
        self.radio = radio
        self.log = log
        self.act = act
        self.received = 0
        radio.start_rx(self._on_capture, stacked=self)

    def decode_rows(self, rows):
        return [row.tobytes() for row in rows]

    def take_row(self, result, duration_s):
        self._received(result, duration_s)

    def _on_capture(self, capture, _tx):
        self._received(capture.samples.tobytes(), capture.duration)

    def _received(self, samples, duration_s):
        now = self.radio.medium.scheduler.now
        self.log.append((self.radio.name, now, duration_s, samples))
        self.received += 1
        if self.act is not None:
            self.act(self, self.received)


class _ShorteningInjector(FaultInjector):
    """Also cuts the tail off every other capture of ``r3`` and ``r5``."""

    def transform_capture(self, radio, capture, start_time):
        capture = super().transform_capture(radio, capture, start_time)
        count = self._capture_counters[radio.name]
        if radio.name in ("r3", "r5") and count % 2:
            return IQSignal(
                capture.samples[: -10 * count],
                capture.sample_rate,
                capture.center_frequency,
            )
        return capture


def _tone_world(factory, acts, plan=None, plain=(), injector_cls=FaultInjector):
    """Radios ``r0``.. in a row, each transmitting a tone in turn.

    ``acts[name]`` is the hand-out action of radio *name*; radios in
    *plain* take captures one at a time (a plain handler, no stack).
    """

    def world():
        with scoped() as (bus, registry):
            recorder = TraceRecorder(bus)
            scheduler = Scheduler()
            medium = factory(scheduler)
            injector = None
            if plan is not None:
                injector = injector_cls(plan)
                medium.install_fault_injector(injector)
            log = []
            radios = {}
            for i in range(6):
                radio = Transceiver(medium, f"r{i}", position=(2.0 * i, 0.0))
                radio.tune(CHANNEL_HZ)
                radios[radio.name] = radio
                if radio.name in plain:
                    radio.start_rx(
                        lambda c, tx, name=radio.name: log.append(
                            (name, tx.identifier, c.samples.tobytes())
                        )
                    )
                else:
                    _Recorder(radio, log, acts.get(radio.name))
            for k in range(8):
                source = radios[f"r{k % 3}"]
                scheduler.schedule_at(
                    k * 400e-6,
                    lambda s=source, k=k: s.transmit(_tone(k % 4)),
                )
            scheduler.run(0.02)
            stats = None if injector is None else asdict(injector.stats)
            return log, _events(recorder), _counters(registry), stats

    return world


def _transmit_at_once(recorder, count):
    """Answer the first and third captures at once, on the same channel."""
    if count in (1, 3):
        recorder.radio.transmit(_tone(3, samples=200))


class TestHandOutChangesTheWorld:
    @pytest.mark.parametrize("factory", MEDIA)
    def test_transmitting_into_pending_captures(self, factory, monkeypatch):
        world = _tone_world(factory, {"r1": _transmit_at_once})
        together, alone, rollbacks = _both(world, monkeypatch)
        assert together == alone
        assert rollbacks  # the later rows were recomposed

    @pytest.mark.parametrize("factory", MEDIA)
    def test_off_channel_transmission_keeps_the_stack(self, factory, monkeypatch):
        def far(recorder, count):
            if count == 1:
                recorder.radio.tune(2480e6)
                recorder.radio.transmit(_tone(1, samples=200, center=2480e6))
                recorder.radio.tune(CHANNEL_HZ)

        together, alone, rollbacks = _both(
            _tone_world(factory, {"r1": far}), monkeypatch
        )
        assert together == alone
        assert rollbacks == []

    @pytest.mark.parametrize("factory", MEDIA)
    def test_retuning_moving_and_silencing_pending_receivers(
        self, factory, monkeypatch
    ):
        def meddle(recorder, count):
            medium = recorder.radio.medium
            radios = medium._radios
            if count == 1:
                with pytest.raises(AttributeError):  # fixed: its row holds
                    radios["r3"].position = (6.5, 0.5)
                radios["r4"].tune(CHANNEL_HZ + 0.5e6)  # re-tuned: recomposed
            elif count == 3:
                radios["r4"].tune(2480e6)  # out of band: skipped
            elif count == 4:
                radios["r4"].tune(CHANNEL_HZ)
                radios["r5"].stop_rx()
            elif count == 5:
                radios["r5"].start_rx(lambda c, tx: None)  # now a plain one

        together, alone, rollbacks = _both(
            _tone_world(factory, {"r2": meddle}), monkeypatch
        )
        assert together == alone
        assert "r4" in rollbacks and "r3" not in rollbacks
        statuses = [dict(f)["status"] for name, _, f in together[1]]
        assert "skipped" in statuses

    @pytest.mark.parametrize("factory", MEDIA)
    def test_plain_and_stacked_receivers_interleave(self, factory, monkeypatch):
        world = _tone_world(factory, {"r1": _transmit_at_once}, plain=("r2", "r4"))
        together, alone, _ = _both(world, monkeypatch)
        assert together == alone


class TestFaultedStacks:
    PLAN = FaultPlan(
        seed=4,
        truncation=CaptureTruncation(every_nth=3, keep_fraction=0.4),
        sample_drops=SampleDrops(num_gaps=2, gap_samples=40),
        duplication=DeliveryDuplication(every_nth=2),
        cfo_steps=(CfoStep(at_s=1e-3, offset_hz=15e3),),
    )

    @pytest.mark.parametrize("factory", MEDIA)
    def test_duplication_truncation_and_sample_drops(self, factory, monkeypatch):
        together, alone, _ = _both(
            _tone_world(factory, {}, plan=self.PLAN), monkeypatch
        )
        assert together == alone
        stats = together[3]
        assert stats["deliveries_duplicated"] > 0
        assert stats["captures_truncated"] > 0
        assert stats["captures_sample_dropped"] > 0

    @pytest.mark.parametrize("factory", MEDIA)
    def test_rows_of_unequal_length(self, factory, monkeypatch):
        stacks = []
        original = RfMedium._decode_stacked

        def spy(rows):
            stacks.append(sorted({row.capture.samples.size for row in rows}))
            original(rows)

        monkeypatch.setattr(RfMedium, "_decode_stacked", staticmethod(spy))
        world = _tone_world(
            factory, {}, plan=self.PLAN, injector_cls=_ShorteningInjector
        )
        together, alone, _ = _both(world, monkeypatch)
        assert together == alone
        assert any(len(sizes) > 1 for sizes in stacks)

    @pytest.mark.parametrize("factory", MEDIA)
    def test_rolled_back_rows_undo_their_faults(self, factory, monkeypatch):
        # Every capture is faulted and every delivery repeated, so the
        # rows the hand-out sends back were all transformed, and each
        # repeat follows a rolled-back row of its receiver.
        monkeypatch.setattr(injector_module, "SAMPLE_DROPS_EVERY_NTH", 1)
        plan = FaultPlan(
            seed=4,
            truncation=CaptureTruncation(every_nth=1, keep_fraction=0.7),
            sample_drops=SampleDrops(num_gaps=2, gap_samples=40),
            duplication=DeliveryDuplication(every_nth=1),
            cfo_steps=(CfoStep(at_s=0.0, offset_hz=15e3),),
        )
        world = _tone_world(factory, {"r1": _transmit_at_once}, plan=plan)
        together, alone, rollbacks = _both(world, monkeypatch)
        assert together == alone
        assert len(rollbacks) >= 3


def _mac_world(factory, plan=None, batteries=None):
    """Dot15d4 nodes on the CSMA-CA MAC: the router forwards each report
    through the single-shot ``send_frame`` the moment it decodes it,
    inside the other nodes' captures."""

    def world():
        with scoped() as (bus, registry):
            recorder = TraceRecorder(bus)
            scheduler = Scheduler()
            medium = factory(scheduler)
            if plan is not None:
                medium.install_fault_injector(FaultInjector(plan))
            frames = []
            macs = {}
            places = {
                "sensor": (0.0, 0.0),
                "router": (2.0, 0.0),
                "coordinator": (4.0, 0.0),
                "bystander-a": (1.0, 2.0),
                "bystander-b": (3.0, 2.0),
            }
            for i, (name, position) in enumerate(places.items()):
                radio = Dot15d4Radio(medium, name=name, position=position)
                radio.set_channel(11)
                mac = MacService(radio, Address(0x1234, 0x10 + i))
                if batteries and name in batteries:
                    battery = Battery(capacity_j=batteries[name])
                    radio.activity_listener = (
                        lambda kind, d, b=battery, m=mac: _drain(b, m, kind, d)
                    )
                _start_tapped(mac, frames, scheduler)
                macs[name] = mac
            router, coordinator = macs["router"], macs["coordinator"]
            router.on_data(
                lambda frame: router.send_frame(
                    build_data(
                        source=router.address,
                        destination=coordinator.address,
                        payload=frame.payload,
                        sequence_number=router.next_sequence(),
                        ack_request=False,
                    )
                )
            )
            for k in range(6):
                scheduler.schedule_at(
                    k * 3e-3,
                    lambda k=k: macs["sensor"].send_data(
                        router.address, bytes([k]) * 4
                    ),
                )
            scheduler.run(0.05)
            stats = {name: asdict(mac.stats) for name, mac in macs.items()}
            return frames, stats, _events(recorder), _counters(registry)

    return world


def _start_tapped(mac, frames, scheduler):
    """Start *mac* behind a tap that logs every FCS-valid frame it hears."""

    def tap(received):
        if received.fcs_ok:
            frames.append((mac.radio.name, scheduler.now, received.psdu))
        mac._on_psdu(received)

    mac.radio.start_rx(tap)


def _drain(battery, mac, kind, duration_s):
    battery.charge_activity(kind, duration_s)
    if battery.depleted:
        mac.stop()


class TestMacHandOuts:
    @pytest.mark.parametrize("factory", MEDIA)
    def test_legacy_forwarding_inside_the_capture_window(
        self, factory, monkeypatch
    ):
        together, alone, rollbacks = _both(_mac_world(factory), monkeypatch)
        assert together == alone
        assert together[1]["coordinator"]["received_frames"] > 0
        assert rollbacks

    @pytest.mark.parametrize("factory", MEDIA)
    def test_battery_dies_mid_stack(self, factory, monkeypatch):
        # Every delivery is duplicated: a node that dies at its listener
        # call gets no MAC call, and its repeat row is skipped.
        plan = FaultPlan(seed=2, duplication=DeliveryDuplication(every_nth=1))
        # bystander-a dies at its first reception, bystander-b later.
        batteries = {"bystander-a": 0.1e-3, "bystander-b": 0.6e-3}
        world = _mac_world(factory, plan=plan, batteries=batteries)
        together, alone, _ = _both(world, monkeypatch)
        assert together == alone
        skipped = [
            dict(fields)["rx"]
            for name, _, fields in together[2]
            if dict(fields).get("status") == "skipped"
        ]
        assert "bystander-a" in skipped
        stats = together[1]
        assert stats["bystander-a"]["received_frames"] == 0
        assert 0 < stats["bystander-b"]["received_frames"]
        assert stats["bystander-b"]["received_frames"] < stats["router"][
            "received_frames"
        ]


# -- the fleet benchmark's campaigns ------------------------------------------------

WORKLOADS = generate.fleetbench_workloads()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_campaign_equals_per_delivery(name, seed, monkeypatch):
    workload = WORKLOADS.WORKLOADS[name]
    spec = workload.spec(seed)
    # One process: the oracle's patches reach every group.
    together, alone, _ = _both(
        lambda: workload.run(spec, workers=1), monkeypatch
    )
    assert WORKLOADS.fingerprint(together) == WORKLOADS.fingerprint(alone)


@pytest.mark.parametrize("name", ["flood", "chaos"])
def test_campaign_trace_equals_per_delivery(name, monkeypatch):
    """The whole TraceBus event sequence of one campaign."""
    import repro.experiments.fleet as fleet_experiment

    workload = WORKLOADS.WORKLOADS[name]
    spec = workload.spec(1)
    real_scoped = fleet_experiment.scoped

    def campaign():
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        monkeypatch.setattr(fleet_experiment, "scoped", lambda: real_scoped(bus))
        # One process, so every group's events reach this recorder.
        result = workload.run(spec, workers=1)
        return WORKLOADS.fingerprint(result), _events(recorder)

    together, alone, _ = _both(campaign, monkeypatch)
    assert len(together[1]) > 100
    assert together == alone
