"""Table III — reception and transmission primitive assessment.

For every Zigbee channel (11–26) and each implementation chip (nRF52832,
CC1352-R1):

* **Reception primitive** — the reference 802.15.4 transmitter sends 100
  counter-bearing frames; the diverted BLE chip receives and decodes them.
* **Transmission primitive** — the diverted chip injects 100 frames; the
  reference 802.15.4 receiver (RZUSBStick) captures them.

Each frame lands in one of the paper's three buckets: *valid* (received,
FCS intact), *corrupted* (received, FCS check fails) or *lost*.  The WiFi
interferers on channels 6 and 11 cause the characteristic dips around
Zigbee channels 16–18 and 21–23.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

import numpy as np

from repro.chips import Cc1352R1, Nrf52832
from repro.chips.cc1352 import CC1352R1_CAPABILITIES
from repro.chips.nrf52832 import NRF52832_CAPABILITIES
from repro.chips.rzusbstick import CFO_STD_HZ as REFERENCE_CFO_STD_HZ
from repro.dot15d4.channels import ZIGBEE_CHANNELS
from repro.experiments.environment import build_bench, counter_frame
from repro.experiments.pool import default_workers, map_tasks
from repro.faults import named_profile
from repro.obs import TraceRecorder, scoped

__all__ = [
    "CHIP_FACTORIES",
    "ChannelResult",
    "Table3Result",
    "run_table3_cell",
    "run_table3",
    "run_table3_wideband",
    "format_table3",
]

CHIP_FACTORIES: Dict[str, Callable] = {
    "nRF52832": Nrf52832,
    "CC1352-R1": Cc1352R1,
}

#: Table III's two WazaBee primitives, reception and transmission.
PRIMITIVES = ("rx", "tx")

#: Frame slots per wideband capture.  Each channel draws its impairments
#: per chunk, so the chunking is part of the wideband sweep's
#: reproducibility contract.
CHUNK_SLOTS = 8

#: Crystal tolerance of each diverted chip's transmit path — the analogue
#: parameter the wideband sweep needs from the chip models.
CHIP_TX_CFO_STD_HZ: Dict[str, float] = {
    "nRF52832": NRF52832_CAPABILITIES.cfo_std_hz,
    "CC1352-R1": CC1352R1_CAPABILITIES.cfo_std_hz,
}


@dataclass
class ChannelResult:
    """One (chip, primitive, channel) cell of Table III.

    *metrics* holds the cell's deterministic counter snapshot (no
    wall-clock timers), taken from a registry scoped to the cell, so two
    runs under the same seed produce identical blocks.  *trace_events* is
    populated only when the cell ran with ``collect_trace=True``: the
    cell's full trace, one flat dict per event, JSONL-ready.
    """

    channel: int
    valid: int = field(default=0, init=False)
    corrupted: int = field(default=0, init=False)
    lost: int = field(default=0, init=False)
    metrics: Dict[str, int] = field(default_factory=dict, init=False)
    trace_events: List[Dict] = field(default_factory=list, init=False)

    @property
    def total(self) -> int:
        return self.valid + self.corrupted + self.lost

    @property
    def valid_rate(self) -> float:
        return self.valid / self.total if self.total else 0.0

    def tally(
        self, outcomes: Sequence[Tuple[bytes, bool]], expected_psdu: bytes
    ) -> None:
        """Count one transmission from its ``(psdu, fcs_ok)`` receptions:
        valid if one is the intact expected frame, corrupted if anything
        else was received, lost if nothing was."""
        if any(ok and psdu == expected_psdu for psdu, ok in outcomes):
            self.valid += 1
        elif outcomes:
            self.corrupted += 1
        else:
            self.lost += 1


def _check_grid(
    chips: Sequence[str],
    primitives: Sequence[str],
    channels: Sequence[int],
    frames: int,
) -> Tuple[int, ...]:
    """Validate a Table III grid; return *channels* as a tuple.

    A repeated chip, primitive or channel would run its cells again and
    overwrite them, so each must be distinct.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    for chip in chips:
        if chip not in CHIP_FACTORIES:
            raise ValueError(f"unknown chip {chip!r}")
    for primitive in primitives:
        if primitive not in PRIMITIVES:
            raise ValueError("primitive must be 'rx' or 'tx'")
    channels = tuple(channels)
    for name, values in (
        ("chips", tuple(chips)),
        ("primitives", tuple(primitives)),
        ("channels", channels),
    ):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"{name} must be distinct; repeated: {repeated}")
    return channels


def run_table3_cell(
    chip_name: str,
    primitive: str,
    channel: int,
    frames: int = 100,
    seed: int = 0,
    fault_profile: Optional[str] = None,
    collect_trace: bool = False,
) -> ChannelResult:
    """Run one cell: *frames* transmissions of one primitive on one channel.

    *fault_profile* names a chaos profile from :mod:`repro.faults` — the
    degraded-channel variant of Table III, targeted at the cell's channel.

    The cell runs inside its own observability scope: its counters land
    in :attr:`ChannelResult.metrics`, and with *collect_trace* its trace
    events (flat dicts, JSONL-ready) land in
    :attr:`ChannelResult.trace_events`.
    """
    _check_grid((chip_name,), (primitive,), (channel,), frames)
    fault_plan = (
        named_profile(fault_profile, channel=channel, seed=seed)
        if fault_profile is not None
        else None
    )
    # The scope must open before any component is constructed: transmitters,
    # receivers, the medium and the injector all bind the current bus and
    # registry at construction time.
    with scoped() as (bus, registry):
        recorder = TraceRecorder(bus) if collect_trace else None
        bench = build_bench(
            CHIP_FACTORIES[chip_name],
            primitive,
            channel,
            # crc32, not hash(): str hashes are randomised per process, which
            # would make cells irreproducible across runs with the same seed.
            seed=seed
            ^ crc32(f"{chip_name}/{primitive}/{channel}".encode()) & 0x7FFFFFFF,
            fault_plan=fault_plan,
        )
        result = ChannelResult(channel=channel)
        for i in range(frames):
            frame = counter_frame(i)
            result.tally(bench.slot(frame), frame.to_bytes())
        # Counters only: timers carry wall-clock noise, which would make
        # per-cell metric blocks differ between identical runs.
        result.metrics = registry.counter_values()
        if recorder is not None:
            result.trace_events = recorder.as_dicts()
    return result


@dataclass
class Table3Result:
    """All cells, keyed by (chip, primitive) then channel."""

    frames_per_cell: int
    cells: Dict[Tuple[str, str], Dict[int, ChannelResult]] = field(
        default_factory=dict, init=False
    )

    def average_valid_rate(self, chip: str, primitive: str) -> float:
        rows = self.cells[(chip, primitive)]
        return float(np.mean([r.valid_rate for r in rows.values()]))


def run_table3(
    frames: int = 100,
    channels: Sequence[int] = ZIGBEE_CHANNELS,
    chips: Sequence[str] = ("nRF52832", "CC1352-R1"),
    primitives: Sequence[str] = PRIMITIVES,
    seed: int = 0,
    fault_profile: Optional[str] = None,
    workers: int = 1,
    collect_trace: bool = False,
) -> Table3Result:
    """Regenerate Table III (or a subset of it).

    With ``workers > 1`` the independent (chip, primitive, channel) cells
    fan out over a process pool (:func:`repro.experiments.pool.map_tasks`).
    Each cell derives its testbed seed from
    ``crc32(chip/primitive/channel)``, so the parallel run is
    bit-identical to the serial one — only faster.

    With *collect_trace*, every cell records its trace in-process (scoped
    per cell, so parallel workers cannot interleave) and returns the
    events on :attr:`ChannelResult.trace_events` as picklable flat dicts.
    """
    channels = _check_grid(chips, primitives, channels, frames)
    result = Table3Result(frames_per_cell=frames)
    grid = [
        (chip, primitive, channel)
        for chip in chips
        for primitive in primitives
        for channel in channels
    ]
    cell_kwargs = [
        dict(
            chip_name=chip,
            primitive=primitive,
            channel=channel,
            frames=frames,
            seed=seed,
            fault_profile=fault_profile,
            collect_trace=collect_trace,
        )
        for chip, primitive, channel in grid
    ]
    cells = map_tasks(run_table3_cell, cell_kwargs, workers)
    for (chip, primitive, _channel), cell in zip(grid, cells):
        result.cells.setdefault((chip, primitive), {})[cell.channel] = cell
    return result


def _wideband_slot_waveform(primitive: str, counter: int, samples_per_chip: int):
    """The on-air baseband for one frame slot of a wideband sweep.

    *rx* primitive: the reference 802.15.4 transmitter's O-QPSK waveform
    (what the diverted wideband receiver must decode).  *tx* primitive:
    the WazaBee injection waveform — preamble, MSK-encoded Access Address
    and chip stream through the BLE GFSK modulator — exactly what
    :class:`~repro.chips.ble_radio.BleRadioPeripheral` puts on the air.
    """
    from repro.phy.ieee802154 import Ppdu

    psdu = counter_frame(counter).to_bytes()
    if primitive == "rx":
        from repro.dsp.oqpsk import OqpskModulator

        modulator = OqpskModulator(samples_per_chip=samples_per_chip)
        return modulator.modulate(Ppdu(psdu).to_chips()).samples
    from repro.ble.packets import PhyMode, access_address_bits, preamble_bits
    from repro.core.encoding import frame_to_msk_bits, wazabee_access_address
    from repro.phy.ble_phy import ble_modulator

    aa = wazabee_access_address()
    bits = np.concatenate(
        [
            preamble_bits(aa, PhyMode.LE_2M),
            access_address_bits(aa),
            frame_to_msk_bits(psdu),
        ]
    )
    return ble_modulator(PhyMode.LE_2M, samples_per_chip).modulate(bits).samples


def run_table3_wideband(
    frames: int = 100,
    channels: Sequence[int] = ZIGBEE_CHANNELS,
    chips: Sequence[str] = ("nRF52832", "CC1352-R1"),
    seed: int = 0,
    workers: Optional[int] = None,
) -> Table3Result:
    """Regenerate Table III from wideband band captures, both primitives.

    Instead of one narrowband testbed per (chip, primitive, channel)
    cell, each (chip, primitive) pair is swept in frame *slots*: the
    slot's waveform goes on the air on every channel simultaneously
    (independent CFO / shadowing / noise / WiFi per channel), the
    :class:`~repro.chips.wideband.WidebandFrontEnd` composes one band
    capture and splits it back in the frequency domain, and the batched
    tensor pipeline (:func:`repro.phy.batch.decode_chip_frames`) decodes
    all channels' slots in a handful of array ops.  The test suite diffs
    this sweep cell by cell against reference band steps
    (``tests/phy/wideband_oracle.py``) that draw identical random
    streams.

    The sweep runs single precision on the sweep raster
    (:data:`repro.chips.wideband.SWEEP_GRID`).  Seeding is per (chip,
    primitive): ``seed ^
    crc32(chip/primitive/wideband)`` with one spawned stream per
    channel, drawn in chunks of :data:`CHUNK_SLOTS` slots; ``workers``
    (default: :func:`~repro.experiments.pool.default_workers`)
    distributes whole (chip, primitive)
    pairs and never changes results — each pair is seeded and decoded
    independently, exactly as in the ``workers=1`` loop.
    """
    from repro.chips.wideband import SWEEP_GRID

    channels = _check_grid(chips, PRIMITIVES, channels, frames)
    tasks = [
        dict(
            chip_name=chip_name,
            primitive=primitive,
            channels=channels,
            frames=frames,
            seed=seed,
            grid=SWEEP_GRID,
            dtype=np.dtype(np.complex64),
        )
        for chip_name in chips
        for primitive in PRIMITIVES
    ]
    if workers is None:
        workers = default_workers(len(tasks))
    result = Table3Result(frames_per_cell=frames)
    outcomes = map_tasks(_run_wideband_pair, tasks, workers)
    for task, cells in zip(tasks, outcomes):
        result.cells[(task["chip_name"], task["primitive"])] = cells
    return result


def _run_wideband_pair(
    chip_name: str,
    primitive: str,
    channels: Tuple[int, ...],
    frames: int,
    seed: int,
    grid,
    dtype,
    front_end_cls=None,
) -> Dict[int, ChannelResult]:
    """All channels of one (chip, primitive) pair, decoded in slot chunks.

    Runs in its own observability scope; every cell carries the pair-wide
    counters.  *front_end_cls* defaults to
    :class:`~repro.chips.wideband.WidebandFrontEnd`; the test suite
    passes its reference band steps here.
    """
    from repro.chips.wideband import WidebandFrontEnd
    from repro.phy.batch import decode_chip_frames

    base_seed = (
        seed ^ crc32(f"{chip_name}/{primitive}/wideband".encode()) & 0x7FFFFFFF
    )
    cfo_std = (
        REFERENCE_CFO_STD_HZ
        if primitive == "rx"
        else CHIP_TX_CFO_STD_HZ[chip_name]
    )
    cells = {c: ChannelResult(channel=c) for c in channels}
    with scoped() as (_bus, registry):
        front = (front_end_cls or WidebandFrontEnd)(
            grid=grid,
            channels=channels,
            seed=base_seed,
            tx_cfo_std_hz=cfo_std,
            dtype=dtype,
        )
        spc = front.samples_per_chip
        for lo in range(0, frames, CHUNK_SLOTS):
            slots = list(range(lo, min(lo + CHUNK_SLOTS, frames)))
            signals = [
                _wideband_slot_waveform(primitive, i, spc) for i in slots
            ]
            expected = [counter_frame(i).to_bytes() for i in slots]
            captures = front.capture_slots(signals)
            num_slots, num_channels, n_out = captures.shape
            decoded = decode_chip_frames(
                captures.reshape(num_slots * num_channels, n_out),
                samples_per_chip=spc,
            )
            for s in range(num_slots):
                for j, channel in enumerate(channels):
                    frame = decoded[s * num_channels + j]
                    outcomes = [] if frame is None else [(frame.psdu, frame.fcs_ok)]
                    cells[channel].tally(outcomes, expected[s])
        metrics = registry.counter_values()
    for cell in cells.values():
        cell.metrics = metrics
    return cells


def format_table3(result: Table3Result) -> str:
    """Render the result in the layout of the paper's Table III."""
    keys = [
        ("rx", "nRF52832"),
        ("rx", "CC1352-R1"),
        ("tx", "nRF52832"),
        ("tx", "CC1352-R1"),
    ]
    present = [(p, c) for (p, c) in keys if (c, p) in result.cells]
    header1 = f"{'':>8} | {'Reception primitive':^25} | {'Transmission primitive':^25}"
    header2 = (
        f"{'Channel':>8} | "
        + " | ".join(f"{c:^11}" for p, c in present[:2])
        + " | "
        + " | ".join(f"{c:^11}" for p, c in present[2:])
    )
    header3 = (
        f"{'':>8} | " + " | ".join(f"{'val':>5} {'cor':>5}" for _ in present)
    )
    lines = [header1, header2, header3, "-" * len(header2)]
    channels = sorted(
        next(iter(result.cells.values())).keys()
    )
    for channel in channels:
        cols = []
        for primitive, chip in present:
            cell = result.cells[(chip, primitive)][channel]
            cols.append(f"{cell.valid:>5} {cell.corrupted:>5}")
        lines.append(f"{channel:>8} | " + " | ".join(cols))
    summary = []
    for primitive, chip in present:
        rate = result.average_valid_rate(chip, primitive) * 100.0
        summary.append(f"{primitive}/{chip}: {rate:.3f}% valid")
    lines.append("-" * len(header2))
    lines.append("averages: " + ", ".join(summary))
    return "\n".join(lines)
