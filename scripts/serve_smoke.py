#!/usr/bin/env python3
"""CI smoke for the streaming sniffer service.

Exercises the operational path no pytest fixture covers: a *real*
backgrounded ``python -m repro serve`` process, two concurrent Unix-socket
subscribers — one JSONL, one PCAP, the JSONL one deliberately slow — at
least 100 streamed frames, strict validation of the PCAP capture with the
repo's own parser, and a SIGTERM delivered mid-stream that must drain
cleanly: exit code 0, a ``bye`` on every stream, and a complete spool.

Run locally:  PYTHONPATH=src python scripts/serve_smoke.py
"""

import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import SpoolReader, parse_pcap, subscribe  # noqa: E402

MIN_FRAMES = 100
LOG_PATH = "serve_smoke.log"


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="wazabee-serve-")
    socket_path = os.path.join(workdir, "serve.sock")
    spool_path = os.path.join(workdir, "serve.spool")
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    log = open(LOG_PATH, "w")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--rate",
            "120",
            "--spool",
            spool_path,
            "--metrics",
        ],
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(socket_path):
            if time.monotonic() > deadline or server.poll() is not None:
                fail("service never opened its socket")
            time.sleep(0.05)
        print(f"service up on {socket_path} (pid {server.pid})")

        # Subscriber 1: JSONL, deliberately slow (sleeps between reads).
        slow_frames = []

        def slow_reader():
            with subscribe(
                socket_path, fmt="jsonl", name="ci-slow", timeout_s=30.0
            ) as client:
                for record in client.records():
                    if record["type"] == "frame":
                        slow_frames.append(record)
                        time.sleep(0.02)  # ~3x slower than production
                    if record["type"] == "bye":
                        slow_frames.append(record)
                        return

        slow_thread = threading.Thread(target=slow_reader, daemon=True)
        slow_thread.start()

        # Subscriber 2: PCAP, read record-by-record on this thread until
        # MIN_FRAMES have streamed (the stream is endless until SIGTERM,
        # so bulk "read until idle" would never return here).
        pcap_client = subscribe(
            socket_path, fmt="pcap", name="ci-pcap", timeout_s=30.0
        )
        capture = bytearray(pcap_client.read_exact(24))  # global header
        packets_seen = 0
        while packets_seen < MIN_FRAMES:
            record_header = pcap_client.read_exact(16)
            incl_len = struct.unpack("<IIII", record_header)[2]
            capture += record_header + pcap_client.read_exact(incl_len)
            packets_seen += 1
        print(f"pcap subscriber captured {packets_seen} frames")

        # SIGTERM mid-stream: the drain contract.  Everything still
        # queued arrives, then the socket closes.
        server.send_signal(signal.SIGTERM)
        pcap_client._sock.settimeout(2.0)
        capture.extend(pcap_client.read_all())
        pcap_client.close()
        code = server.wait(timeout=60.0)
        if code != 0:
            fail(f"service exited {code} after SIGTERM")
        print("service drained and exited 0")

        slow_thread.join(timeout=30.0)
        if slow_thread.is_alive():
            fail("slow subscriber never received its bye")

        # Validate the final capture strictly: the drain must never cut
        # a pcap record in half.
        header, packets = parse_pcap(bytes(capture))
        if header["network"] != 195:
            fail(f"wrong link type {header['network']}")
        if len(packets) < MIN_FRAMES:
            fail(f"final capture has only {len(packets)} frames")
        if not all(len(p["psdu"]) >= 5 for p in packets):
            fail("capture contains an impossible runt frame")
        print(
            f"pcap valid: DLT {header['network']}, "
            f"{len(packets)} packets, snaplen {header['snaplen']}"
        )

        # The slow subscriber's stream ended with an orderly bye.
        if not slow_frames or slow_frames[-1].get("type") != "bye":
            fail("slow subscriber's stream did not end with a bye record")
        print(
            f"slow subscriber: {len(slow_frames) - 1} frames, "
            f"bye reason {slow_frames[-1]['reason']!r}"
        )

        # The spool survived the SIGTERM complete and loadable.
        reader = SpoolReader(spool_path)
        if not reader.complete:
            fail("spool missing its clean-shutdown footer")
        if len(reader.frame_records()) < MIN_FRAMES:
            fail("spool recorded fewer frames than were streamed")
        print(
            f"spool complete: {len(reader.frame_records())} frames "
            f"(meta {reader.meta})"
        )
        print("serve smoke OK")
    finally:
        if server.poll() is None:
            server.kill()
        log.close()


if __name__ == "__main__":
    main()
