"""Streaming sniffer service: ``repro serve``.

Turns the batch experiment runner into a long-running daemon that drives
the radio world continuously and streams decoded 802.15.4 frames to many
concurrent subscribers — as JSONL or PCAP (DLT 195) over a Unix socket —
with the robustness core this subsystem exists for:

* per-subscriber **bounded rings** with an explicit backpressure policy
  (``block`` / ``drop-oldest`` / ``disconnect-slow``);
* a **session supervisor** with heartbeats, stall/idle timeouts and
  capped exponential-backoff restarts of crashed pipeline stages;
* **graceful overload degradation** — under queue pressure the service
  sheds trace records first, then corrupt frames, then downsamples,
  every shed counted and announced;
* **drain-on-SIGTERM** with a crash-safe spool that ``--replay`` can
  reproduce byte-for-byte.
"""

from repro.serve.client import SnifferClient, subscribe
from repro.serve.codec import (
    DLT_IEEE802_15_4,
    encode_jsonl,
    frame_record,
    parse_pcap,
    pcap_global_header,
)
from repro.serve.config import BACKPRESSURE_POLICIES, ServeConfig
from repro.serve.ring import BoundedRing
from repro.serve.server import SnifferServer
from repro.serve.session import Sink, SocketSink, SubscriberSession
from repro.serve.shed import SHED_LEVEL_NAMES, DegradeLadder
from repro.serve.source import SimWorldSource, SpoolReplaySource
from repro.serve.spool import SpoolReader, SpoolWriter
from repro.serve.supervisor import SupervisedStage, Supervisor

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BoundedRing",
    "DegradeLadder",
    "DLT_IEEE802_15_4",
    "SHED_LEVEL_NAMES",
    "ServeConfig",
    "SimWorldSource",
    "Sink",
    "SnifferClient",
    "SnifferServer",
    "SocketSink",
    "SpoolReader",
    "SpoolReplaySource",
    "SpoolWriter",
    "SubscriberSession",
    "SupervisedStage",
    "Supervisor",
    "encode_jsonl",
    "frame_record",
    "parse_pcap",
    "pcap_global_header",
    "subscribe",
]
