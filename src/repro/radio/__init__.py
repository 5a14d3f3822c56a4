"""Simulated RF environment.

This package substitutes for the paper's over-the-air testbed (§V): a
discrete-event scheduler, a shared 2.4 GHz medium with log-distance path
loss and a thermal noise floor, WiFi-like interferers (the paper's channels
6 and 11), and a transceiver front-end with tuning, channel filtering,
per-transmission carrier-frequency error and transmit power.

All randomness flows through explicit ``numpy.random.Generator`` instances
so experiments are reproducible from seeds.
"""

from repro.radio.scheduler import Scheduler
from repro.radio.medium import BufferPool, RfMedium, Transmission, PropagationModel
from repro.radio.interference import WifiInterferer, wifi_channel_frequency_hz
from repro.radio.shard import CellGrid, ShardedRfMedium
from repro.radio.transceiver import Transceiver

__all__ = [
    "Scheduler",
    "RfMedium",
    "Transmission",
    "PropagationModel",
    "WifiInterferer",
    "wifi_channel_frequency_hz",
    "BufferPool",
    "CellGrid",
    "ShardedRfMedium",
    "Transceiver",
]
