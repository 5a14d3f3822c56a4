"""Golden-vector corpus generator.

Builds the frozen reference vectors under ``tests/golden/`` from the
encoding pipeline itself:

* ``table1_pn_sequences.json`` — the paper's Table I: the sixteen 32-chip
  DSSS PN sequences.
* ``algorithm1_msk.json`` — Algorithm 1's output: the 31-bit MSK encoding
  of every PN sequence, plus the WazaBee Access Address derived from
  symbol 0.
* ``tx_streams.json`` — one full transmission per 802.15.4 channel 11–26:
  a per-channel PSDU (valid FCS), its chip stream and its MSK rotation-bit
  stream, along with the channel's centre frequency.
* ``roundtrip.json`` — the noiseless capture→decode expectation for each
  TX stream: decoding the post-Access-Address bits must reproduce the
  PSDU byte-for-byte with the FCS intact.
* ``wideband.json`` — the wideband composite: four golden PSDUs
  broadcast over all sixteen channels at once, composed into one band
  capture of wide-rate time samples, split back by the time-domain
  oracle (``tests/phy/wideband_oracle.py``, ``"mode": "time"``) and
  batch-decoded.  Stores only decision-level values (payload bytes, FCS
  verdicts, sync indices, integer LLR margins) from a fixed seed, so the
  file stays byte-stable while pinning the whole wideband receive chain.
* ``fleet.json`` — a fixed-seed 24-node / 2-PAN depletion campaign on the
  sharded medium: per-node delivery/drop/retry counters, battery curves,
  depletion times and the medium's delivery ledger.  Pins the whole fleet
  stack (topology builder, MAC, energy model, sharded delivery, merge).
* ``fleetbench_digests.json`` — the sha256 of fleetbench's
  ``fingerprint()`` for each benchmark workload at seed 1: every per-node
  counter, curve and ledger entry of one benchmark campaign.  Fleetbench
  itself only checks a change against itself and against its dense
  replay, which shares every receive kernel; these digests pin the
  benchmark's traffic to the committed outcome.  Written by
  :func:`main` but kept out of :data:`CORPUS`, so the test suite runs
  each workload once (``tests/experiments/test_fleetbench_digests.py``).
* ``table3_digests.json`` — the sha256 of two small Table III grids (both
  chips × rx/tx × channels 11 and 26 × 10 frames), one clean and one under
  the ``flaky-rx`` fault profile: every cell's tallies, counters and trace
  events, i.e. each frame's delivery, decode outcome, chip-error rate and
  FCS verdict.  Pins the narrowband receive chain's decisions; kept out of
  :data:`CORPUS` like the fleetbench digests
  (``tests/experiments/test_table3_digests.py``).

Every value is derived deterministically (the wideband vector from one
pinned PCG64 seed, everything else with no RNG at all — and never from a
clock), so the corpus regenerates byte-identically on every run; the
test suite fails on any single-bit drift between the pipeline and the
files on disk.

Regenerate (only after an *intentional* encoding change) with::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys
from typing import Dict

import numpy as np

from repro.core.encoding import (
    MSK_STRIDE,
    frame_to_msk_bits,
    wazabee_access_address,
    wazabee_access_address_bits,
)
from repro.core.rx import decode_payload_bits
from repro.core.tables import MSK_BITS_PER_SYMBOL, default_table
from repro.dot15d4.channels import ZIGBEE_CHANNELS, channel_frequency_hz
from repro.dot15d4.frames import Address, build_data
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, PN_SEQUENCES, Ppdu

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

_SRC = Address(pan_id=0x1234, address=0x0063)
_DST = Address(pan_id=0x1234, address=0x0042)


def _bit_string(bits) -> str:
    return "".join(str(int(b)) for b in np.asarray(bits).ravel())


def _pack_hex(bits) -> str:
    """Bits packed MSB-first into bytes, hex-encoded (compact storage)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def channel_psdu(channel: int) -> bytes:
    """The per-channel golden frame: a data frame naming its channel."""
    payload = b"\x10" + bytes([channel]) + b"\x00"
    frame = build_data(
        source=_SRC,
        destination=_DST,
        payload=payload,
        sequence_number=channel,
        ack_request=False,
    )
    return frame.to_bytes()


def build_table1() -> Dict:
    return {
        "chips_per_symbol": CHIPS_PER_SYMBOL,
        "sequences": {
            str(symbol): _bit_string(PN_SEQUENCES[symbol])
            for symbol in range(16)
        },
    }


def build_algorithm1() -> Dict:
    table = default_table()
    return {
        "msk_bits_per_symbol": MSK_BITS_PER_SYMBOL,
        "access_address": f"0x{wazabee_access_address():08x}",
        "access_address_bits": _bit_string(wazabee_access_address_bits()),
        "correspondence": {
            str(symbol): _bit_string(table.msk_sequence(symbol))
            for symbol in range(16)
        },
    }


def build_tx_streams() -> Dict:
    streams = {}
    for channel in ZIGBEE_CHANNELS:
        psdu = channel_psdu(channel)
        chips = Ppdu(psdu).to_chips()
        msk_bits = frame_to_msk_bits(psdu)
        streams[str(channel)] = {
            "frequency_hz": channel_frequency_hz(channel),
            "psdu": psdu.hex(),
            "chips": _pack_hex(chips),
            "chip_count": int(chips.size),
            "msk_bits": _pack_hex(msk_bits),
            "msk_bit_count": int(msk_bits.size),
        }
    return {
        "chips_per_symbol": CHIPS_PER_SYMBOL,
        "msk_stride": MSK_STRIDE,
        "streams": streams,
    }


def build_roundtrip() -> Dict:
    cases = {}
    for channel in ZIGBEE_CHANNELS:
        psdu = channel_psdu(channel)
        bits = frame_to_msk_bits(psdu)
        # The BLE correlator locks on the Access Address — one full preamble
        # symbol — so the decoder sees the stream from the second symbol on.
        decoded = decode_payload_bits(bits[MSK_STRIDE:])
        assert decoded is not None, f"golden roundtrip failed on {channel}"
        cases[str(channel)] = {
            "psdu": decoded.psdu.hex(),
            "fcs_ok": decoded.fcs_ok,
            "sfd_index": decoded.sfd_index,
            "mean_distance": decoded.mean_distance,
            "symbol_count": len(decoded.symbols),
        }
    return {"skip_bits": MSK_STRIDE, "cases": cases}


#: Root seed of the wideband composite capture — part of the pinned
#: contract; changing it regenerates a different (equally valid) vector.
WIDEBAND_SEED = 2026

#: The four slot transmissions of the composite: each slot broadcasts the
#: golden PSDU named after one of these channels across all 16 channels.
WIDEBAND_SLOT_CHANNELS = (11, 16, 21, 26)


def wideband_decisions(front_end_cls=None) -> Dict:
    """Decode the composite wideband capture; return decision-level cells.

    Shared by the generator (default: the time-domain oracle, the pinned
    path) and the golden tests, which re-run it with the production
    front end and the per-channel oracle to assert every band step makes
    exactly the pinned decisions.
    """
    if front_end_cls is None:
        from tests.phy.wideband_oracle import TimeDomainFrontEnd

        front_end_cls = TimeDomainFrontEnd
    from repro.chips.rzusbstick import CFO_STD_HZ
    from repro.dsp.oqpsk import OqpskModulator
    from repro.phy.batch import decode_chip_frames

    modulator = OqpskModulator(samples_per_chip=8)
    signals = [
        modulator.modulate(Ppdu(channel_psdu(c)).to_chips()).samples
        for c in WIDEBAND_SLOT_CHANNELS
    ]
    # The slots are reference O-QPSK transmissions: the RZUSBStick's crystal.
    front = front_end_cls(CFO_STD_HZ, seed=WIDEBAND_SEED)
    captures = front.capture_slots(signals)
    num_slots, num_channels, n_out = captures.shape
    decoded = decode_chip_frames(
        captures.reshape(num_slots * num_channels, n_out),
        samples_per_chip=front.samples_per_chip,
    )
    cells: Dict[str, Dict] = {}
    for s, slot_channel in enumerate(WIDEBAND_SLOT_CHANNELS):
        per_channel = {}
        for j, channel in enumerate(front.channels):
            frame = decoded[s * num_channels + j]
            if frame is None:
                per_channel[str(channel)] = {"found": False}
            else:
                per_channel[str(channel)] = {
                    "found": True,
                    "psdu": frame.psdu.hex(),
                    "fcs_ok": frame.fcs_ok,
                    "sfd_index": frame.sfd_index,
                    "sync_start": frame.sync_start,
                    "llr_margin": min(frame.llrs),
                }
        cells[str(slot_channel)] = per_channel
    return cells


def build_wideband() -> Dict:
    from repro.phy.channelizer import WidebandGrid

    grid = WidebandGrid()
    return {
        "seed": WIDEBAND_SEED,
        "mode": "time",
        "samples_per_chip": 8,
        "grid": {
            "channel_rate_hz": int(grid.channel_rate),
            "oversample": int(grid.oversample),
        },
        "slot_channels": list(WIDEBAND_SLOT_CHANNELS),
        "slots": wideband_decisions(),
    }


#: Pinned parameters of the fleet campaign vector.
FLEET_SEED = 24
FLEET_NODES = 24
FLEET_PANS = 2
FLEET_DURATION_S = 1.0
FLEET_FLOOD_RATE_HZ = 100.0


def build_fleet() -> Dict:
    from repro.experiments.fleet import run_fleet_campaign
    from repro.zigbee.fleet import make_fleet

    spec = make_fleet(
        num_nodes=FLEET_NODES, num_pans=FLEET_PANS, seed=FLEET_SEED
    )
    result = run_fleet_campaign(
        spec,
        duration_s=FLEET_DURATION_S,
        attack=True,
        flood_rate_hz=FLEET_FLOOD_RATE_HZ,
        medium_kind="sharded",
    )
    assert result.ledger_balanced, "golden fleet campaign ledger unbalanced"
    doc = result.to_dict()
    doc["seed"] = FLEET_SEED
    return doc


#: Seed of the pinned fleetbench campaigns.
FLEETBENCH_SEED = 1


def fleetbench_workloads():
    """``fleetbench/workloads.py``, imported (read-only) from its path."""
    name = "fleetbench_workloads"
    if name not in sys.modules:
        path = GOLDEN_DIR.parents[1] / "fleetbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def _fleetbench_digest(name: str, **overrides) -> str:
    workloads = fleetbench_workloads()
    workload = workloads.WORKLOADS[name]
    outcome = workload.run(workload.spec(FLEETBENCH_SEED), **overrides)
    fingerprint = workloads.fingerprint(outcome).encode("utf-8")
    return hashlib.sha256(fingerprint).hexdigest()


def build_fleetbench_digests() -> Dict:
    digests = {
        name: _fleetbench_digest(name) for name in fleetbench_workloads().WORKLOADS
    }
    return {"seed": FLEETBENCH_SEED, "sha256": digests}


#: The fault profile of the pinned one-row delivery campaign.
FLEETBENCH_HARSH = "harsh"


def build_fleetbench_harsh_digest() -> Dict:
    return {
        "seed": FLEETBENCH_SEED,
        "workload": "chaos",
        "chaos": FLEETBENCH_HARSH,
        "sha256": _fleetbench_digest("chaos", chaos=FLEETBENCH_HARSH),
    }


#: The pinned Table III grids: fault profile by grid name.
TABLE3_GRIDS = {"clean": None, "flaky-rx": "flaky-rx"}
TABLE3_CHANNELS = (11, 26)
TABLE3_FRAMES = 10


def table3_grid_document(fault_profile) -> Dict:
    """One pinned grid's decisions, cell by cell, before hashing."""
    from repro.experiments.table3 import run_table3

    result = run_table3(
        frames=TABLE3_FRAMES,
        channels=TABLE3_CHANNELS,
        fault_profile=fault_profile,
        collect_trace=True,
    )
    return {
        f"{chip}/{primitive}/{channel}": {
            "valid": cell.valid,
            "corrupted": cell.corrupted,
            "lost": cell.lost,
            "metrics": cell.metrics,
            "trace": cell.trace_events,
        }
        for (chip, primitive), rows in result.cells.items()
        for channel, cell in rows.items()
    }


def build_table3_digests() -> Dict:
    digests = {}
    for name, fault_profile in TABLE3_GRIDS.items():
        doc = json.dumps(table3_grid_document(fault_profile), sort_keys=True)
        digests[name] = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    return {
        "channels": list(TABLE3_CHANNELS),
        "frames": TABLE3_FRAMES,
        "sha256": digests,
    }


#: Vectors written by :func:`main` but too slow to render twice per test
#: run; each has its own test.
PINNED = {
    "fleetbench_digests.json": build_fleetbench_digests,
    "fleetbench_harsh_digest.json": build_fleetbench_harsh_digest,
    "table3_digests.json": build_table3_digests,
}

CORPUS = {
    "table1_pn_sequences.json": build_table1,
    "algorithm1_msk.json": build_algorithm1,
    "tx_streams.json": build_tx_streams,
    "roundtrip.json": build_roundtrip,
    "wideband.json": build_wideband,
    "fleet.json": build_fleet,
}


def render(name: str) -> str:
    """Canonical serialisation — the byte-stability contract."""
    build = CORPUS.get(name) or PINNED[name]
    return json.dumps(build(), indent=2, sort_keys=True) + "\n"


def main() -> int:
    for name in [*CORPUS, *PINNED]:
        path = GOLDEN_DIR / name
        path.write_text(render(name), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    # The time-domain oracle lives in the test package: put the
    # repository root on the path when run as a script.
    sys.path.insert(0, str(GOLDEN_DIR.parents[1]))
    raise SystemExit(main())
