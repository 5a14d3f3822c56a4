"""Textual renderings of the paper's tables (shared by benches and the CLI)."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.channel_map import COMMON_CHANNELS
from repro.core.encoding import wazabee_access_address
from repro.core.tables import default_table
from repro.phy.ieee802154 import PN_SEQUENCES

__all__ = [
    "render_table1",
    "render_table2",
    "render_correspondence",
    "render_similarity_matrix",
]


def render_table1() -> str:
    """The paper's Table I: block → PN sequence."""
    lines = ["block (b0..b3) | PN sequence (c0..c31)"]
    for symbol in range(16):
        block = "".join(str((symbol >> i) & 1) for i in range(4))
        chips = "".join(str(int(c)) for c in PN_SEQUENCES[symbol])
        grouped = " ".join(chips[i : i + 8] for i in range(0, 32, 8))
        lines.append(f"{block:>14} | {grouped}")
    return "\n".join(lines)


def render_table2() -> str:
    """The paper's Table II: Zigbee/BLE common channels."""
    lines = ["Zigbee ch | BLE ch | centre frequency"]
    for zigbee in sorted(COMMON_CHANNELS):
        ble, freq = COMMON_CHANNELS[zigbee]
        lines.append(f"{zigbee:>9} | {ble:>6} | {freq / 1e6:.0f} MHz")
    return "\n".join(lines)


def render_correspondence() -> str:
    """Algorithm 1's output: the PN → MSK correspondence table."""
    table = default_table()
    lines = ["symbol | MSK sequence (31 bits)"]
    for symbol, bits in table.as_dict().items():
        lines.append(f"{symbol:>6} | {bits}")
    lines.append(f"WazaBee access address: 0x{wazabee_access_address():08X}")
    return "\n".join(lines)


def render_similarity_matrix(matrix: Dict[Tuple[str, str], float]) -> str:
    """The future-work cross-demodulation BER matrix, schemes in the
    matrix's order."""
    names = list(dict.fromkeys(tx for tx, _rx in matrix))

    def short(name: str) -> str:
        return name.split(" (")[0]

    width = max(len(short(n)) for n in names) + 2
    lines = [" " * width + "".join(f"{short(n)[:12]:>14}" for n in names)]
    for tx in names:
        cells = "".join(f"{matrix[(tx, rx)]:>14.3f}" for rx in names)
        lines.append(f"{short(tx):<{width}}{cells}")
    return "\n".join(lines)
