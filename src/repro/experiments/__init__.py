"""Experiment harnesses regenerating the paper's tables and figures.

Each module maps to an artefact of the paper (see DESIGN.md §4):

* :mod:`repro.experiments.environment` — the §V testbed: attacker and
  RZUSBStick 3 m apart, WiFi interference on channels 6 and 11.
* :mod:`repro.experiments.table3` — Table III: per-channel success rates of
  the reception and transmission primitives on both chips.
* :mod:`repro.experiments.figures` — data series behind Figures 1–3.
* :mod:`repro.experiments.scenarios` — end-to-end runs of Scenarios A and B
  (Figures 4 and 5).
* :mod:`repro.experiments.ablations` — parameter sweeps over the design
  choices (Hamming threshold, Gaussian BT, modulation index, ESB fallback).
"""

from repro.experiments.environment import Testbed, build_testbed
from repro.experiments.fleet import (
    FleetCampaignResult,
    FleetNodeReport,
    format_fleet_report,
    run_fleet_campaign,
)
from repro.experiments.table3 import (
    ChannelResult,
    Table3Result,
    run_table3,
    run_table3_cell,
)

__all__ = [
    "Testbed",
    "build_testbed",
    "ChannelResult",
    "Table3Result",
    "run_table3",
    "run_table3_cell",
    "FleetCampaignResult",
    "FleetNodeReport",
    "format_fleet_report",
    "run_fleet_campaign",
]
