"""The symmetric pivot: diverting a *Zigbee* chip to attack BLE (§IV-D note).

The paper observes that the MSK/O-QPSK equivalence should in theory allow
the reverse attack, "however, this strategy is quite difficult to implement,
because Zigbee protocol stack prevents us from finely controlling the
802.15.4 modulator input ... mainly due to the Direct Sequence Spread
Spectrum functionality".

This experiment quantifies that: a Zigbee chip's transmitter accepts
arbitrary *symbols* (PSDU nibbles), but every symbol is expanded to one of
only 16 fixed 32-chip PN sequences — so of the 2^32 possible 32-chip blocks
the attacker can emit 16.  We search that reachable set greedily for the
chip stream whose MSK rotation bits best approximate a target BLE packet,
then check whether a BLE receiver accepts the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.ble.packets import (
    ADVERTISING_ACCESS_ADDRESS,
    AdvNonconnInd,
    PhyMode,
    access_address_bits,
    assemble_on_air_bits,
    parse_pdu_bits,
)
from repro.dsp.msk import chips_to_transitions
from repro.dsp.oqpsk import OqpskModulator
from repro.phy.ble_phy import DEFAULT_SAMPLES_PER_SYMBOL, ble_demodulator
from repro.phy.ieee802154 import CHIPS_PER_SYMBOL, PN_SEQUENCES

__all__ = ["SymmetricPivotResult", "attempt_symmetric_pivot"]

#: The BLE channel index the target packet is whitened for.
BLE_CHANNEL = 8
#: The PDU of the target BLE packet: a non-connectable advertisement
#: carrying one Flags AD structure.
TARGET_PDU = AdvNonconnInd(bytes(6), b"\x02\x01\x06").to_pdu()


@dataclass
class SymmetricPivotResult:
    """Outcome of the best-effort reverse pivot."""

    target_bits: int
    matched_bits: int
    sync_found: bool
    crc_ok: bool
    symbols_used: List[int]

    @property
    def match_fraction(self) -> float:
        return self.matched_bits / self.target_bits if self.target_bits else 0.0


def _best_symbol_for_segment(
    segment: np.ndarray, chip_index: int, previous_chip: int
) -> Tuple[int, int]:
    """The PN symbol whose rotation bits best match a 32-bit target segment."""
    best_symbol, best_distance = 0, segment.size + 1
    for symbol in range(16):
        transitions = chips_to_transitions(
            PN_SEQUENCES[symbol],
            start_index=chip_index,
            previous_chip=previous_chip,
        )
        distance = int(np.count_nonzero(transitions[: segment.size] != segment))
        if distance < best_distance:
            best_symbol, best_distance = symbol, distance
    return best_symbol, best_distance


def attempt_symmetric_pivot() -> SymmetricPivotResult:
    """Try to synthesise a BLE LE 2M packet out of DSSS PN sequences.

    Returns how close the reachable chip streams get (Hamming match against
    the target on-air bits) and whether a BLE receiver actually accepts the
    emission (sync + CRC).  A genuine WazaBee-style pivot needs ≈100%;
    the DSSS constraint caps this far lower.
    """
    packet = assemble_on_air_bits(
        TARGET_PDU, channel=BLE_CHANNEL, phy=PhyMode.LE_2M
    )
    target = packet.bits

    # Greedy symbol-by-symbol search over the reachable chip streams.
    symbols: List[int] = []
    chips: List[np.ndarray] = []
    previous_chip = 0
    total_distance = 0
    covered = 0
    for start in range(0, target.size, CHIPS_PER_SYMBOL):
        segment = target[start : start + CHIPS_PER_SYMBOL]
        symbol, distance = _best_symbol_for_segment(
            segment, chip_index=start, previous_chip=previous_chip
        )
        symbols.append(symbol)
        chips.append(PN_SEQUENCES[symbol])
        previous_chip = int(PN_SEQUENCES[symbol][-1])
        total_distance += distance
        covered += segment.size

    # Emit the best-effort stream through the real O-QPSK modulator and let
    # a BLE receiver judge it.
    stream = np.concatenate(chips)
    signal = OqpskModulator(
        samples_per_chip=DEFAULT_SAMPLES_PER_SYMBOL, chip_rate=2e6
    ).modulate(stream)
    demod = ble_demodulator(PhyMode.LE_2M)
    sync_bits = access_address_bits(ADVERTISING_ACCESS_ADDRESS)
    result = demod.demodulate_packet(
        signal, sync_bits, num_payload_bits=8 * (len(TARGET_PDU) + 3)
    )
    crc_ok = False
    if result is not None:
        bits, _sync = result
        try:
            decoded, crc_ok = parse_pdu_bits(bits, channel=BLE_CHANNEL)
            crc_ok = crc_ok and decoded == TARGET_PDU
        except ValueError:
            crc_ok = False
    return SymmetricPivotResult(
        target_bits=covered,
        matched_bits=covered - total_distance,
        sync_found=result is not None,
        crc_ok=crc_ok,
        symbols_used=symbols,
    )
