"""Unix-socket transport: handshake, concurrent formats, bad clients."""

import socket
import threading
import time

from repro.obs import scoped
from repro.serve import ServeConfig, SnifferServer, parse_pcap, subscribe


def _server(tmp_path, **overrides):
    defaults = dict(
        socket_path=str(tmp_path / "serve.sock"),
        frames=30,
        rate_fps=100.0,  # paced, so clients connect before production ends
        seed=7,  # loss-free world: exact ledger counts assume no decode loss
        idle_timeout_s=0.0,
    )
    defaults.update(overrides)
    return SnifferServer(ServeConfig(**defaults))


def _wait_done(server, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if server.source_finished:
            return True
        time.sleep(0.01)
    return False


def _hold_world(server):
    """Hold *server*'s world stage until the returned event is set (or
    for good, when the server stops first): a test that counts frames
    from frame 0 sets it once its subscribers are attached."""
    release = threading.Event()
    run = server.source.run

    def held(stop_event):
        while not release.wait(0.01):
            if stop_event.is_set():
                return
        run(stop_event)

    server.source.run = held
    return release


def _wait_attached(server, sessions, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while len(server.open_sessions()) < sessions:
        assert time.monotonic() < deadline, "subscribers never attached"
        time.sleep(0.01)


class TestSocketTransport:
    def test_jsonl_and_pcap_subscribers_share_one_stream(self, tmp_path):
        with scoped():
            server = _server(tmp_path)
            # Production starts once both subscribers are attached, so
            # each sees the stream from frame 0 however slow its accept.
            release = _hold_world(server)
            server.start()
            path = server.config.socket_path
            with subscribe(path, fmt="jsonl", name="text") as text_client:
                pcap_client = subscribe(path, fmt="pcap", name="cap")
                _wait_attached(server, 2)
                release.set()
                frames = list(text_client.frames(10))
                assert [f["seq"] for f in frames] == list(range(10))
                assert all(
                    bytes.fromhex(f["psdu"]) for f in frames
                )
            # The text client hung up; only the pcap session drains.
            assert _wait_done(server)
            ledger = server.shutdown()
            # The drain closed the pcap stream: read it to its end.
            capture = pcap_client.read_all()
            pcap_client.close()
            header, packets = parse_pcap(capture)
            assert header["network"] == 195
            assert len(packets) == ledger["produced"] == 30
            # Socket sessions appear on the ledger like any other.
            assert "cap" in ledger["sessions"]
            assert ledger["sessions"]["cap"]["delivered"] == 30

    def test_bad_handshake_does_not_kill_the_accept_loop(self, tmp_path):
        with scoped() as (_bus, registry):
            server = _server(tmp_path, frames=10, rate_fps=50.0)
            release = _hold_world(server)
            server.start()
            path = server.config.socket_path
            # A liar client: garbage instead of a JSON hello.
            bad = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            bad.connect(path)
            bad.sendall(b"GET / HTTP/1.1\r\n\r\n")
            bad.close()
            deadline = time.monotonic() + 10.0
            while (
                registry.counter_values().get("serve.sessions.bad_handshake", 0)
                == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert (
                registry.counter_values()["serve.sessions.bad_handshake"] == 1
            )
            # A well-behaved client connecting afterwards is still served.
            with subscribe(path, fmt="jsonl", name="good") as client:
                _wait_attached(server, 1)
                release.set()
                assert len(list(client.frames(3))) == 3
            server.shutdown()

    def test_shutdown_unlinks_the_socket_path(self, tmp_path):
        import os

        with scoped():
            server = _server(tmp_path, frames=3, rate_fps=0.0)
            server.start()
            path = server.config.socket_path
            assert os.path.exists(path)
            assert _wait_done(server)
            server.shutdown()
            assert not os.path.exists(path)

    def test_a_subscriber_after_the_world_ended_gets_bye_at_once(self, tmp_path):
        with scoped():
            server = _server(tmp_path, frames=5)
            server.start()
            assert _wait_done(server)
            # Heartbeats would keep records() going until shutdown: read
            # for at most the client timeout.
            deadline = time.monotonic() + 5.0
            records = []
            with subscribe(
                server.config.socket_path, name="late", timeout_s=5.0
            ) as client:
                for record in client.records():
                    records.append(record)
                    if time.monotonic() > deadline:
                        break
            assert records[-1]["type"] == "bye"
            assert records[-1]["reason"] == "source-finished"
            assert records[-1]["frames_delivered"] == 0
            ledger = server.shutdown()
            assert ledger["sessions"]["late"]["close_reason"] == "source-finished"

    def test_client_chosen_policy_lands_on_the_session(self, tmp_path):
        with scoped():
            server = _server(tmp_path, frames=5, rate_fps=50.0)
            release = _hold_world(server)
            server.start()
            # The hello line may name a policy; the Python client never
            # does, so this client speaks the protocol by hand.
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
                client.settimeout(10.0)
                client.connect(server.config.socket_path)
                client.sendall(
                    b'{"format": "jsonl", "policy": "block", "name": "chooser"}\n'
                )
                _wait_attached(server, 1)
                release.set()
                _wait_done(server)
            ledger = server.shutdown()
            assert ledger["sessions"]["chooser"]["policy"] == "block"
