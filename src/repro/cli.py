"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one-command access to every reproduction artefact:

* ``table1`` / ``table2`` / ``alg1`` — print the paper's static tables;
* ``table3`` — run the per-channel primitive assessment (configurable
  frame count, chips, channels; ``--wideband`` sweeps every channel at
  once from polyphase-channelized band captures);
* ``scenario-a`` / ``scenario-b`` — run the attack scenarios (Scenario B
  optionally against an AES-CCM*-secured network);
* ``similarity`` — compute the modulation-similarity matrix;
* ``symmetric`` — quantify the reverse (Zigbee→BLE) pivot bound;
* ``serve`` — run the supervised streaming sniffer service (JSONL/PCAP
  subscriber sessions over a Unix socket, with bounded queues,
  backpressure and replay);
* ``fleet`` — run the fleet-scale energy-depletion campaign (multi-PAN
  topology on the spatially sharded medium, per-node battery curves,
  exact delivery-ledger check).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

__all__ = ["main", "build_parser"]


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    """Observability flags shared by every simulation-running command."""
    sub.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the run's trace events to FILE as JSON Lines",
    )
    sub.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics block after the results",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.faults import profile_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="WazaBee (DSN 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I (PN sequences)")
    sub.add_parser("table2", help="print Table II (common channels)")
    sub.add_parser("alg1", help="print the Algorithm 1 correspondence table")

    t3 = sub.add_parser("table3", help="run the Table III assessment")
    t3.add_argument("--frames", type=int, default=100, help="frames per cell")
    t3.add_argument(
        "--chips",
        nargs="+",
        default=["nRF52832", "CC1352-R1"],
        help="chip models to assess",
    )
    t3.add_argument(
        "--channels",
        type=int,
        nargs="+",
        default=None,
        help="Zigbee channels (default: 11-26)",
    )
    t3.add_argument("--seed", type=int, default=1)
    t3.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="fan the independent cells out over N worker processes "
        "(results are bit-identical to the serial run)",
    )
    t3.add_argument(
        "--chaos",
        choices=profile_names(),
        default=None,
        help="run under a named fault-injection profile",
    )
    t3.add_argument(
        "--wideband",
        action="store_true",
        help="sweep all channels at once from wideband band captures "
        "(spectral band split + batched tensor decode) instead of one "
        "narrowband testbed per cell",
    )
    _add_obs_args(t3)

    sa = sub.add_parser("scenario-a", help="smartphone injection (Figure 4)")
    sa.add_argument("--duration", type=float, default=60.0, help="simulated seconds")
    sa.add_argument("--channel", type=int, default=14, help="target Zigbee channel")
    sa.add_argument("--seed", type=int, default=7)
    _add_obs_args(sa)

    sb = sub.add_parser("scenario-b", help="tracker attack chain (Figure 5)")
    sb.add_argument("--duration", type=float, default=40.0)
    sb.add_argument("--dos-channel", type=int, default=26)
    sb.add_argument("--seed", type=int, default=5)
    sb.add_argument(
        "--secure",
        action="store_true",
        help="enable AES-CCM* on the target network (the §VII counter-measure)",
    )
    _add_obs_args(sb)

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale energy-depletion campaign on the sharded medium",
    )
    fleet.add_argument("--nodes", type=int, default=50, help="total node count")
    fleet.add_argument("--pans", type=int, default=4, help="number of PANs")
    fleet.add_argument(
        "--duration", type=float, default=3.0, help="simulated seconds"
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--flood-rate",
        type=float,
        default=200.0,
        metavar="HZ",
        help="attacker frames/second per PAN",
    )
    fleet.add_argument(
        "--medium",
        choices=("sharded", "dense", "dense-unbounded"),
        default="sharded",
        help="medium implementation ('dense' keeps the sharded range "
        "cutoff; results are byte-identical, only slower)",
    )
    fleet.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="fan independent PAN groups (no device within range of "
        "another group's on its channel) out over N processes; default: "
        "min(2, usable CPUs, groups) (results identical to the serial "
        "run)",
    )
    fleet.add_argument(
        "--sample-interval", type=float, default=0.5, metavar="S",
        help="battery/alive sampling period",
    )
    fleet.add_argument(
        "--no-mesh",
        action="store_true",
        help="pure star topologies (no router relays)",
    )
    fleet.add_argument(
        "--no-attack",
        action="store_true",
        help="baseline run without the WazaBee flooders",
    )
    fleet.add_argument(
        "--channel-reuse",
        action="store_true",
        help="put every PAN on one channel (spatial-reuse workload)",
    )
    fleet.add_argument(
        "--chaos",
        choices=profile_names(),
        default=None,
        help="run under a named fault-injection profile",
    )
    _add_obs_args(fleet)

    sim = sub.add_parser("similarity", help="modulation similarity matrix")
    sim.add_argument("--snr", type=float, default=None, help="AWGN SNR in dB")
    sim.add_argument("--bits", type=int, default=2048)

    sub.add_parser("symmetric", help="reverse-pivot (Zigbee→BLE) bound")

    serve = sub.add_parser(
        "serve",
        help="streaming sniffer service over a Unix socket (JSONL + PCAP)",
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH", help="Unix socket to listen on"
    )
    serve.add_argument("--channel", type=int, default=14)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--frames",
        type=int,
        default=0,
        help="stop after N transmitted frames (0 = run until SIGTERM)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="wall-clock pacing in frames/second (0 = flat out)",
    )
    serve.add_argument(
        "--policy",
        default="drop-oldest",
        choices=("block", "drop-oldest", "disconnect-slow"),
        help="default backpressure policy for subscribers that pick none",
    )
    serve.add_argument("--queue-depth", type=int, default=256)
    serve.add_argument("--heartbeat", type=float, default=0.5, metavar="S")
    serve.add_argument("--stall-timeout", type=float, default=2.0, metavar="S")
    serve.add_argument("--idle-timeout", type=float, default=30.0, metavar="S")
    serve.add_argument(
        "--spool", metavar="FILE", default=None, help="crash-safe frame spool"
    )
    serve.add_argument(
        "--replay",
        metavar="SPOOL",
        default=None,
        help="serve a recorded spool instead of the live world",
    )
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="PROFILE",
        help="radio profile (clean, dropout, ...) or service profile "
        "(svc-stall, svc-socket, svc-flood, svc-crash, svc-storm)",
    )
    serve.add_argument(
        "--no-trace-stream",
        action="store_true",
        help="do not forward obs trace events to subscribers",
    )
    _add_obs_args(serve)

    return parser


def _cmd_table1(_args) -> int:
    from repro.experiments.reports import render_table1

    print(render_table1())
    return 0


def _cmd_table2(_args) -> int:
    from repro.experiments.reports import render_table2

    print(render_table2())
    return 0


def _cmd_alg1(_args) -> int:
    from repro.experiments.reports import render_correspondence

    print(render_correspondence())
    return 0


def _cmd_table3(args) -> int:
    from repro.dot15d4.channels import ZIGBEE_CHANNELS
    from repro.experiments.table3 import format_table3, run_table3

    channels = tuple(args.channels) if args.channels else ZIGBEE_CHANNELS
    if args.wideband:
        from repro.experiments.table3 import run_table3_wideband

        if args.chaos is not None or args.trace is not None:
            print(
                "--wideband does not combine with --chaos or --trace "
                "(the wideband sweep has its own physics path and scoped "
                "per-pair registries)",
                file=sys.stderr,
            )
            return 2
        try:
            result = run_table3_wideband(
                frames=args.frames,
                channels=channels,
                chips=tuple(args.chips),
                seed=args.seed,
                workers=args.workers,
            )
        except ValueError as exc:
            print(f"table3: {exc}", file=sys.stderr)
            return 2
        print("wideband sweep")
        print(format_table3(result))
        if args.metrics:
            for (chip, primitive), rows in sorted(result.cells.items()):
                first_channel = min(rows)
                print(f"[metrics {chip}/{primitive} (pair-wide)]")
                for name, value in rows[first_channel].metrics.items():
                    print(f"  {name} = {value}")
        return 0
    try:
        result = run_table3(
            frames=args.frames,
            channels=channels,
            chips=tuple(args.chips),
            seed=args.seed,
            fault_profile=args.chaos,
            workers=args.workers,
            collect_trace=args.trace is not None,
        )
    except ValueError as exc:
        print(f"table3: {exc}", file=sys.stderr)
        return 2
    if args.chaos is not None:
        print(f"chaos profile: {args.chaos}")
    print(format_table3(result))
    if args.trace is not None:
        from repro.obs import write_events_jsonl

        events = []
        for (chip, primitive), rows in sorted(result.cells.items()):
            for channel in sorted(rows):
                cell_id = f"{chip}/{primitive}/{channel}"
                for event in rows[channel].trace_events:
                    events.append({**event, "cell": cell_id})
        write_events_jsonl(events, args.trace)
        print(f"trace: {len(events)} events -> {args.trace}")
    if args.metrics:
        for (chip, primitive), rows in sorted(result.cells.items()):
            for channel in sorted(rows):
                print(f"[metrics {chip}/{primitive}/ch{channel}]")
                for name, value in rows[channel].metrics.items():
                    print(f"  {name} = {value}")
    return 0


@contextmanager
def _obs_scope(args) -> Iterator[tuple]:
    """Open a private bus/registry scope with a *streaming* trace writer.

    Unlike the old collect-then-write pattern, ``--trace`` attaches a
    :class:`~repro.obs.JsonlTraceWriter` that flushes each event as it is
    emitted and is closed in ``finally`` — a run that raises mid-
    experiment still leaves a complete, closed JSONL file behind.
    """
    from repro.obs import JsonlTraceWriter, scoped

    with scoped() as (bus, registry):
        writer = JsonlTraceWriter(args.trace, bus) if args.trace is not None else None
        try:
            yield bus, registry
        finally:
            if writer is not None:
                writer.close()
                print(
                    f"trace: {writer.events_written} events -> {args.trace}"
                )


def _print_metrics(args, registry) -> None:
    if args.metrics:
        print("[metrics]")
        print(registry.format())


def _cmd_scenario_a(args) -> int:
    from repro.experiments.scenarios import run_scenario_a

    # The scope opens before the scenario constructs its testbed, so every
    # component binds the command's private bus/registry pair.
    with _obs_scope(args) as (_bus, registry):
        result = run_scenario_a(
            duration_s=args.duration, zigbee_channel=args.channel, seed=args.seed
        )
        print(f"advertising events:        {result.events_total}")
        print(
            f"events on target channel:  {result.events_on_target} "
            f"(hit rate {result.hit_rate:.4f}, CSA#2 expectation 0.0270)"
        )
        print(f"forged readings displayed: {result.injected_received}")
        _print_metrics(args, registry)
    return 0 if result.injected_received else 1


def _cmd_scenario_b(args) -> int:
    from repro.attacks.scenario_b import AttackPhase
    from repro.experiments.scenarios import run_scenario_b

    with _obs_scope(args) as (_bus, registry):
        result = run_scenario_b(
            duration_s=args.duration,
            dos_channel=args.dos_channel,
            seed=args.seed,
            security_key=bytes(range(16)) if args.secure else None,
        )
        for line in result.log:
            print(line)
        print(f"final phase:          {result.final_phase.value}")
        print(f"sensor channel after: {result.sensor_channel_after}")
        print(
            f"display entries:      {result.legitimate_entries} legitimate, "
            f"{result.spoofed_entries} spoofed"
        )
        _print_metrics(args, registry)
    attack_succeeded = (
        result.final_phase is AttackPhase.DONE
        and result.sensor_channel_after == args.dos_channel
    )
    if args.secure:
        return 0 if not attack_succeeded else 1
    return 0 if attack_succeeded else 1


def _cmd_serve(args) -> int:
    import os
    import signal
    import time

    from repro.faults import profile_names, service_profile_names
    from repro.serve import ServeConfig, SnifferServer

    chaos = service_chaos = None
    if args.chaos is not None:
        if args.chaos in service_profile_names():
            service_chaos = args.chaos
        elif args.chaos in profile_names():
            chaos = args.chaos
        else:
            print(
                f"unknown chaos profile {args.chaos!r}; choose from "
                f"{', '.join(profile_names() + service_profile_names())}",
                file=sys.stderr,
            )
            return 2
    config = ServeConfig(
        socket_path=args.socket,
        channel=args.channel,
        seed=args.seed,
        frames=args.frames,
        rate_fps=args.rate,
        chaos=chaos,
        service_chaos=service_chaos,
        forward_trace=not args.no_trace_stream,
        queue_depth=args.queue_depth,
        default_policy=args.policy,
        heartbeat_s=args.heartbeat,
        stall_timeout_s=args.stall_timeout,
        idle_timeout_s=args.idle_timeout,
        spool_path=args.spool,
        replay_path=args.replay,
    )
    with _obs_scope(args) as (_bus, registry):
        server = SnifferServer(config)

        def _on_signal(_signum, _frame):
            server.request_shutdown()

        # SIGTERM/SIGINT begin the drain: stop producing, flush every
        # subscriber's queue, finalise the spool — never a torn stream.
        previous = {
            sig: signal.signal(sig, _on_signal)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            server.start()
            print(f"serving on {args.socket} (pid {os.getpid()})")
            sys.stdout.flush()
            while not server.stop_event.is_set():
                if server.source_finished:
                    break
                time.sleep(0.1)
            ledger = server.shutdown()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        print(f"produced:  {ledger['produced']} frames")
        print(f"spooled:   {ledger['spooled']} records")
        print(f"shed:      {ledger['shed']}")
        for name, entry in sorted(ledger["sessions"].items()):
            print(
                f"session {name}: {entry['delivered']} delivered, "
                f"{entry['dropped']} dropped, {entry['shed']} shed "
                f"({entry['policy']}, close={entry['close_reason']})"
            )
        _print_metrics(args, registry)
    if server.failed_stage is not None:
        print(f"stage {server.failed_stage!r} exhausted its restarts", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args) -> int:
    from repro.experiments.fleet import format_fleet_report, run_fleet_campaign
    from repro.zigbee.fleet import make_fleet

    spec = make_fleet(
        num_nodes=args.nodes,
        num_pans=args.pans,
        seed=args.seed,
        mesh=not args.no_mesh,
        channel_reuse=args.channel_reuse,
    )
    with _obs_scope(args) as (_bus, registry):
        result = run_fleet_campaign(
            spec,
            duration_s=args.duration,
            attack=not args.no_attack,
            flood_rate_hz=args.flood_rate,
            medium_kind=args.medium,
            workers=args.workers,
            sample_interval_s=args.sample_interval,
            chaos=args.chaos,
        )
        print(format_fleet_report(result))
        _print_metrics(args, registry)
    return 0 if result.ledger_balanced else 1


def _cmd_similarity(args) -> int:
    from repro.core.similarity import similarity_matrix, viable_pivots
    from repro.experiments.reports import render_similarity_matrix

    matrix = similarity_matrix(num_bits=args.bits, snr_db=args.snr)
    print(render_similarity_matrix(matrix))
    print()
    for tx, rx, ber in viable_pivots(matrix):
        print(f"viable pivot: {tx} -> {rx} (BER {ber:.4f})")
    return 0


def _cmd_symmetric(_args) -> int:
    from repro.experiments.symmetric import attempt_symmetric_pivot

    result = attempt_symmetric_pivot()
    print(f"target on-air bits:    {result.target_bits}")
    print(
        f"best achievable match: {result.matched_bits} "
        f"({result.match_fraction:.1%})"
    )
    print(f"BLE sync-word fired:   {result.sync_found}")
    print(f"BLE CRC accepted:      {result.crc_ok}")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "alg1": _cmd_alg1,
    "table3": _cmd_table3,
    "fleet": _cmd_fleet,
    "scenario-a": _cmd_scenario_a,
    "scenario-b": _cmd_scenario_b,
    "similarity": _cmd_similarity,
    "symmetric": _cmd_symmetric,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
