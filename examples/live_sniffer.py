#!/usr/bin/env python3
"""Live sniffer client: subscribe, decode, and hand frames to the IDS.

The batch experiments answer "does the pivot work?"; the streaming
service answers "what is the pivoted chip hearing *right now*?".  This
example runs the full client path against a supervised ``repro serve``
daemon:

1. start the service on a Unix socket (in-process here; operationally
   you would run ``python -m repro serve --socket /run/wazabee.sock``);
2. subscribe as a JSONL client and decode each streamed PSDU back into a
   MAC frame with the 802.15.4 parser;
3. hand every frame to the §VII counter-measure as a
   :class:`~repro.ids.monitor.BandObservation` — a defender trained on a
   BLE-only site immediately flags the 2.4 GHz Zigbee band as new.

Run:  python examples/live_sniffer.py
"""

import tempfile
import threading
import time

from repro.dot15d4.channels import channel_frequency_hz
from repro.dot15d4.frames import MacFrame
from repro.ids import AnomalyDetector
from repro.ids.monitor import BandObservation
from repro.obs import scoped
from repro.serve import ServeConfig, SnifferServer, subscribe

CHANNEL = 14
FRAMES = 30


def stream_frames(socket_path: str, limit: int):
    """Subscribe and yield (record, decoded MacFrame) pairs."""
    with subscribe(socket_path, fmt="jsonl", name="live-sniffer") as client:
        for record in client.frames(limit):
            psdu = bytes.fromhex(record["psdu"])
            try:
                frame = MacFrame.parse(psdu, check_fcs=record["fcs_ok"])
            except ValueError:
                continue  # corrupt capture: keep the stream alive
            yield record, frame


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir, scoped():
        socket_path = f"{workdir}/wazabee.sock"
        server = SnifferServer(
            ServeConfig(
                socket_path=socket_path,
                channel=CHANNEL,
                frames=FRAMES,
                rate_fps=150.0,  # paced so a live client can keep up
                idle_timeout_s=0.0,
                spool_path=f"{workdir}/wazabee.spool",
            )
        )
        server.start()
        print(f"sniffer service up on {socket_path}")

        # Once the frame budget is spent, drain the service so every
        # subscriber's stream ends with an orderly ``bye`` — without
        # this the session idles on heartbeats and a client waiting for
        # "the rest" of the frames would wait forever.
        def _drain_when_done():
            while not server.source_finished:
                time.sleep(0.05)
            server.shutdown()

        threading.Thread(target=_drain_when_done, daemon=True).start()

        # -- the defender's model: a pure-BLE site --------------------------
        # Nothing legitimate ever transmits on Zigbee-only bands, so the
        # baseline for them is *absence*; any streamed frame there is news.
        detector = AnomalyDetector()
        detector.train([], duration_s=10.0)

        observations = []
        decoded = 0
        for record, frame in stream_frames(socket_path, FRAMES):
            decoded += 1
            if decoded <= 3:  # show the first few decodes
                src = frame.source.address if frame.source else None
                dst = frame.destination.address if frame.destination else None
                print(
                    f"  frame seq={record['seq']} t={record['time']:.4f}s "
                    f"src=0x{src:04x} dst=0x{dst:04x} "
                    f"payload={frame.payload.hex()}"
                )
            observations.append(
                BandObservation(
                    time=record["time"],
                    band_hz=channel_frequency_hz(record["channel"]),
                    power_dbm=-40.0,  # sniffed at close range
                    duration_s=4e-3,
                )
            )
        print(f"decoded {decoded} frames from the stream")

        # -- IDS hand-off ---------------------------------------------------
        window = max(o.time for o in observations) if observations else 1.0
        alerts = detector.score(observations, duration_s=max(window, 1e-3))
        for alert in alerts:
            print(f"IDS alert [{alert.kind}] {alert.detail}")
        assert any(a.kind == "new-band" for a in alerts), (
            "a BLE-only baseline must flag Zigbee-band traffic"
        )

        ledger = server.shutdown()
        session = ledger["sessions"]["live-sniffer"]
        print(
            f"service ledger: {ledger['produced']} produced, "
            f"{session['delivered']} delivered to this client, "
            f"{session['dropped']} dropped, {session['shed']} shed"
        )


if __name__ == "__main__":
    main()
