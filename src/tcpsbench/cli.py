"""Batch command-line front-end.

Subcommands wire experiment configs to the library: single step runs, loop
time searches, QoC estimation, performance-curve sweeps, topology
placement/traffic studies, cybersickness experiments, and a real-datagram
RTT probe. Every run writes its artifacts plus a manifest into the output
directory; the manifest holds the config as read, with --seed and --delta-ms
merged in. Identical config and seed give byte-identical artifacts for
simulated channels.

Exit codes: 0 success, 2 configuration or argument error, 3 experiment error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable

from . import __version__
from .core import TcpsbenchError, extract_metrics, rtt_budget, write_curve_csv
from .experiments import ConfigError, Experiment, load_experiment, parse_addr
from .loopsim import run_step_experiment, serve_plant, run_socket_experiment
from .netsim import TopologyError, channel_from_topology, check_flow_hosts, pair_flows
from .qoc import (
    NoGoodDelta,
    find_delta_opt,
    find_delta_opt_bar,
    perf_curve,
    qoc_value,
    result_rows_csv,
    v_max,
)
from .sickness import (
    TooShort,
    compliant_trajectory,
    histogram_csv,
    measure_E,
    predict_E,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .transport import (
    KIND_HAPTIC,
    KIND_KINEMATIC,
    MIN_PACKET_BYTES,
    DatagramEndpoint,
    Packet,
    SocketTimeout,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXPERIMENT = 3

OUTPUT_ENV = "TCPSBENCH_OUT"


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUTPUT_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _manifest(out: Path, command: str, exp_raw: dict, artifacts: list[str],
              extra: dict | None = None) -> None:
    doc = {"command": command, "config": exp_raw, "artifacts": sorted(artifacts)}
    if extra:
        doc.update(extra)
    _write(out / "manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load(args: argparse.Namespace) -> Experiment:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides.setdefault("loop", {})["seed"] = args.seed
        overrides.setdefault("search", {})["seed"] = args.seed
    if getattr(args, "delta_ms", None) is not None:
        overrides.setdefault("loop", {})["delta_ms"] = args.delta_ms
    return load_experiment(args.config, overrides)


def _metrics_summary(m) -> str:
    pairs = [
        ("t0_ms", m.t0), ("t1_ms", m.t1), ("t2_ms", m.t2), ("t_r_ms", m.t_r),
        ("overshoot_pct", m.overshoot_pct),
        ("steady_state_error_pct", m.steady_state_error_pct),
        ("undershoot_pct", m.undershoot_pct),
        ("settling_ms", m.settling_ms),
        ("delta_y_mm", m.delta_y),
        ("is_good", m.is_good),
    ]
    return "\n".join(f"{k}: {v}" for k, v in pairs) + "\n"


# argparse types: a bad argument is a usage error (exit 2) before any work starts

# the longest wait in ms: a socket timeout takes up to threading.TIMEOUT_MAX
# seconds, but time.sleep adds its wait to the monotonic clock, and that sum
# must fit in the same range, so half of it
_WAIT_MAX_MS = threading.TIMEOUT_MAX * 500.0


def _floats(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _gspecs(text: str) -> list[float]:
    g = _floats(text)
    if not (g and g == sorted(set(g)) and 0.0 < g[0] and g[-1] <= 1.0):
        raise argparse.ArgumentTypeError(f"expected ascending targets in (0, 1], got {text!r}")
    return g


def _gspec(text: str) -> float:
    (g,) = _gspecs(text)
    return g


def _number(convert: Callable[[str], float], least: float, above: bool = False,
            most: float = math.inf):
    """An argparse type: a finite number (convert: int or float) of at
    least `least`, or above it, and at most `most`."""
    def parse(text: str) -> float:
        v = convert(text)
        if not math.isfinite(v) or v < least or (above and v == least) or v > most:
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'above' if above else 'of at least'} {least}"
                f"{'' if most == math.inf else f' and at most {most}'}, got {text!r}")
        return v

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _placements(text: str) -> list[tuple[str, ...]]:
    pairs = [tuple(spec.split(":")) for spec in text.split(",")]
    if any(len(p) != 2 for p in pairs):
        raise argparse.ArgumentTypeError(f"expected master:slave switch pairs, got {text!r}")
    return pairs


def cmd_step(args: argparse.Namespace) -> int:
    exp = _load(args)
    out = _out_dir(args)
    if exp.channel.kind == "socket":
        desc = exp.channel.description
        endpoint = DatagramEndpoint(desc["local"], desc["remote"],
                                    packet_size_b=exp.loop.packet_size_b, seed=exp.loop.seed)
        try:
            record = run_socket_experiment(exp.loop, endpoint, deadline_ms=args.deadline_ms)
        finally:
            endpoint.close()
        rows = ["t_ms,x,y"] + [f"{t!r},{x!r},{y!r}" for t, x, y in record.operator_trace]
        _write(out / "operator_trace.csv", "\n".join(rows) + "\n")
        artifacts = ["operator_trace.csv"]
    else:
        record = run_step_experiment(exp.loop, exp.channel.factory(exp.loop.seed))
        write_curve_csv(record.curve, str(out / "curve.csv"))
        artifacts = ["curve.csv", "metrics.txt"]
        try:
            metrics = extract_metrics(record.curve, exp.limits)
            _write(out / "metrics.txt", _metrics_summary(metrics))
        except TcpsbenchError as exc:
            _write(out / "metrics.txt", f"error: {type(exc).__name__}: {exc}\n")
    stats = {d: asdict(s) for d, s in record.channel_stats.items()}
    _write(out / "channel_stats.json", json.dumps(stats, indent=2, sort_keys=True) + "\n")
    _manifest(out, "step", exp.raw, artifacts + ["channel_stats.json"])
    print(out / artifacts[0])
    return EXIT_OK


def cmd_delta_opt(args: argparse.Namespace) -> int:
    exp = _load(args)
    out = _out_dir(args)
    delta = find_delta_opt(exp.runner(), exp.search)
    _write(out / "delta_opt.txt", f"delta_opt_ms: {delta!r}\n")
    _manifest(out, "delta-opt", exp.raw, ["delta_opt.txt"])
    print(f"delta_opt_ms: {delta}")
    return EXIT_OK


def cmd_qoc(args: argparse.Namespace) -> int:
    exp = _load(args)
    out = _out_dir(args)
    result = find_delta_opt_bar(exp.runner(), args.gspec, exp.search)
    _write(out / "qoc.txt", result.summary() + "\n")
    _write(out / "qoc.csv", result_rows_csv([result]))
    _manifest(out, "qoc", exp.raw, ["qoc.txt", "qoc.csv"])
    print(result.summary())
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    exp = _load(args)
    out = _out_dir(args)
    pc = perf_curve(exp.runner(), args.gspec_list, exp.search)
    _write(out / "perf_curve.csv", result_rows_csv(pc.points))
    lines = [f"missing: {pc.missing}"] if pc.missing else []
    lines += [p.summary() + "\n" for p in pc.points]
    _write(out / "perf_curve.txt", "\n".join(lines))
    _manifest(out, "curve", exp.raw, ["perf_curve.csv", "perf_curve.txt"])
    print((out / "perf_curve.csv").read_text(encoding="utf-8").strip())
    return EXIT_OK


def cmd_vmax(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    if args.qoc is None and args.t_r_ms is None:
        raise ConfigError("vmax needs --qoc or --t-r-ms")
    if args.qoc is not None and not math.isfinite(args.qoc):
        raise ConfigError(f"--qoc must be finite, got {args.qoc}")
    if args.t_r_ms is not None and not 0.0 < args.t_r_ms < math.inf:
        raise ConfigError(f"--t-r-ms must be positive and finite, got {args.t_r_ms}")
    q = args.qoc if args.qoc is not None else qoc_value(args.t_r_ms)
    if not math.isfinite(q):  # 1.5 / t_r overflows for a subnormal rise time
        raise ConfigError(f"--t-r-ms {args.t_r_ms} is too small: QoC {q}")
    v = v_max(q)
    _write(out / "vmax.txt", f"qoc: {q!r}\nv_max_mps: {v!r}\n")
    _manifest(out, "vmax", {"qoc": q, "t_r_ms": args.t_r_ms}, ["vmax.txt"])
    print(f"qoc: {q}\nv_max_mps: {v}")
    return EXIT_OK


def cmd_netsim(args: argparse.Namespace) -> int:
    exp = _load(args)
    if exp.channel.topology is None:
        raise ConfigError("netsim needs a topology channel")
    out = _out_dir(args)
    topo = exp.channel.topology
    placements = args.placements or [(topo.te_master, topo.te_slave)]
    try:  # every placement and flow set is checked before the first search
        placed = [replace(topo, te_master=a, te_slave=b) for a, b in placements]
        if args.pairs < 1:
            raise TopologyError(f"need at least 1 host pair, got {args.pairs}")
        flow_sets = {rate: pair_flows(args.pairs, rate, args.flow_pkt_bytes)
                     for rate in args.rates}
        check_flow_hosts(topo, [f for rate in args.rates if rate > 0 for f in flow_sets[rate]])
    except TopologyError as exc:
        raise ConfigError(f"bad --placements, --pairs, --rates or --flow-pkt-bytes: "
                          f"{exc}") from None
    rows = ["te_master,te_slave,rate_bps,delta_opt_ms,t_r_ms,qoc,v_max"]
    for (a, b), topo_ab in zip(placements, placed):
        for rate in args.rates:
            flows = flow_sets[rate] if rate > 0 else ()
            factory = lambda seed, t=topo_ab, f=flows: channel_from_topology(
                t, f, seed, exp.channel.queue_cap)
            runner = replace(exp.runner(), channel_factory=factory)
            try:
                res = find_delta_opt_bar(runner, args.gspec, exp.search)
                rows.append(f"{a},{b},{rate!r},{res.delta_opt_bar_ms!r},"
                            f"{res.t_r_mean_ms!r},{res.qoc!r},{res.v_max_mps!r}")
            except NoGoodDelta:
                rows.append(f"{a},{b},{rate!r},,,,")
    _write(out / "netsim.csv", "\n".join(rows) + "\n")
    _manifest(out, "netsim", exp.raw, ["netsim.csv"],
              {"rates": args.rates, "placements": [list(p) for p in placements]})
    print((out / "netsim.csv").read_text(encoding="utf-8").strip())
    return EXIT_OK


def cmd_sickness(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    if args.mode == "synth":
        try:
            traj = compliant_trajectory(args.fs, args.steps, args.vmax, args.fraction,
                                        args.seed or 0)
        except ValueError as exc:
            raise ConfigError(f"bad synth arguments: {exc}") from None
        write_trajectory_csv(traj, str(out / "trajectory.csv"))
        _manifest(out, "sickness synth",
                  {"fs": args.fs, "steps": args.steps, "vmax": args.vmax,
                   "fraction": args.fraction, "seed": args.seed or 0},
                  ["trajectory.csv"])
        print(out / "trajectory.csv")
        return EXIT_OK

    if args.traj is None:
        raise ConfigError(f"sickness {args.mode} needs --traj")
    if args.mode == "predict" and not args.vmax > 0.0:
        raise ConfigError("sickness predict needs a --vmax above 0")
    try:
        traj = read_trajectory_csv(args.traj, args.fs if args.fs > 0 else None)
    except (OSError, ValueError, TooShort) as exc:
        raise ConfigError(f"cannot read trajectory {args.traj!r}: {exc}") from None
    if args.mode == "predict":
        e = predict_E(traj, args.vmax)
        _write(out / "sickness.txt", f"predicted_E_pct: {e!r}\nv_max_mps: {args.vmax!r}\n")
        _manifest(out, "sickness predict", {"traj": args.traj, "vmax": args.vmax},
                  ["sickness.txt"])
        print(f"predicted_E_pct: {e}")
        return EXIT_OK

    # measure
    exp = load_experiment(args.config)
    channel = exp.channel.factory(args.seed if args.seed is not None else exp.loop.seed)
    report = measure_E(traj, channel, robot_tau_ms=exp.loop.robot_tau_ms,
                       v_max_mps=args.vmax, packet_size_b=exp.loop.packet_size_b)
    _write(out / "sickness.txt", report.summary() + "\n")
    _write(out / "error_histogram.csv", histogram_csv(report))
    _manifest(out, "sickness measure", exp.raw, ["sickness.txt", "error_histogram.csv"],
              {"traj": args.traj})
    print(report.summary())
    return EXIT_OK


def cmd_probe(args: argparse.Namespace) -> int:
    if args.mode == "measure" and args.count == 0:
        raise ConfigError("probe measure needs a --count above 0 (0 is for serve)")
    local = parse_addr(args.bind if args.mode == "serve" else args.local)
    if args.mode == "serve":
        endpoint = DatagramEndpoint(local, packet_size_b=args.packet_size)
        try:
            if args.plant_config:
                exp = load_experiment(args.plant_config)
                curve = serve_plant(endpoint, exp.loop, deadline_ms=args.deadline_ms)
                out = _out_dir(args)
                write_curve_csv(curve, str(out / "curve.csv"))
                _manifest(out, "probe serve", exp.raw, ["curve.csv"])
                print(out / "curve.csv")
            else:
                served = 0
                while args.count == 0 or served < args.count:
                    pkt, addr = endpoint.recv_packet(args.deadline_ms)
                    endpoint.send_packet(Packet(kind=KIND_HAPTIC, seq=pkt.seq,
                                                epoch=pkt.epoch, x=pkt.x, value=pkt.value),
                                         to=addr)
                    served += 1
                print(f"echoed {served} packets")
        finally:
            endpoint.close()
        return EXIT_OK

    # measure
    endpoint = DatagramEndpoint(local, parse_addr(args.remote), packet_size_b=args.packet_size)
    rtts = []
    lost = 0
    try:
        for i in range(args.count):
            t0 = time.perf_counter()
            endpoint.send_packet(Packet(kind=KIND_KINEMATIC, seq=i, epoch=i, x=0.0, value=0.0))
            try:
                while True:
                    pkt, _ = endpoint.recv_packet(args.deadline_ms)
                    if pkt.seq == i:
                        break
                rtts.append((time.perf_counter() - t0) * 1000.0)
            except SocketTimeout:
                lost += 1
            if args.interval_ms > 0:
                time.sleep(args.interval_ms / 1000.0)
    finally:
        endpoint.close()
    out = _out_dir(args)
    lines = [f"sent: {args.count}", f"lost: {lost}"]
    if rtts:
        rtts_sorted = sorted(rtts)
        mean = sum(rtts) / len(rtts)
        p95 = rtts_sorted[min(len(rtts) - 1, int(0.95 * len(rtts)))]
        lines += [f"rtt_min_ms: {rtts_sorted[0]:.3f}", f"rtt_mean_ms: {mean:.3f}",
                  f"rtt_p95_ms: {p95:.3f}", f"rtt_max_ms: {rtts_sorted[-1]:.3f}"]
        for modality in ("video", "audio", "haptic"):
            budget = rtt_budget(modality)
            verdict = "within" if p95 <= budget.max_rtt_ms else "exceeds"
            lines.append(f"budget_{modality}: {verdict} {budget.max_rtt_ms} ms")
    text = "\n".join(lines) + "\n"
    _write(out / "probe.txt", text)
    _manifest(out, "probe measure",
              {"local": args.local, "remote": args.remote, "count": args.count},
              ["probe.txt"])
    print(text.strip())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpsbench",
        description="Step-response benchmarking for tactile cyber-physical systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p: argparse.ArgumentParser, config: bool = True) -> None:
        if config:
            p.add_argument("--config", default="ideal",
                           help="bundled preset name or path to a JSON config")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTPUT_ENV} or ./out)")
        p.add_argument("--seed", type=_number(int, 0), default=None,
                       help="override loop+search seed (0 or more)")

    p = sub.add_parser("step", help="run one step experiment, emit curve + metrics")
    common(p)
    p.add_argument("--delta-ms", type=float, default=None, help="override loop wait time")
    p.add_argument("--deadline-ms", type=_number(float, 0.0, above=True, most=_WAIT_MAX_MS),
                   default=5000.0, help="socket mode: feedback deadline before timing out")
    p.set_defaults(fn=cmd_step)

    p = sub.add_parser("delta-opt", help="least loop time with a good single-run curve")
    common(p)
    p.set_defaults(fn=cmd_delta_opt)

    p = sub.add_parser("qoc", help="tuned QoC for one goodness target")
    common(p)
    p.add_argument("--gspec", type=_gspec, required=True)
    p.set_defaults(fn=cmd_qoc)

    p = sub.add_parser("curve", help="QoC performance curve over goodness targets")
    common(p)
    p.add_argument("--gspec-list", type=_gspecs, required=True,
                   help="comma-separated ascending targets")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("vmax", help="hand-speed ceiling from a QoC or rise time")
    common(p, config=False)
    p.add_argument("--qoc", type=float, default=None)
    p.add_argument("--t-r-ms", type=float, default=None)
    p.set_defaults(fn=cmd_vmax)

    p = sub.add_parser("netsim", help="placement/traffic QoC sweep over a topology")
    common(p)
    p.add_argument("--gspec", type=_gspec, default=0.9)
    p.add_argument("--rates", type=_floats, default="0", help="comma-separated H-H rates in bps")
    p.add_argument("--placements", type=_placements, default=None,
                   help="comma-separated master:slave switch pairs")
    p.add_argument("--pairs", type=int, default=16, help="host pairs generating traffic")
    p.add_argument("--flow-pkt-bytes", type=int, default=64)
    p.set_defaults(fn=cmd_netsim)

    p = sub.add_parser("sickness", help="cybersickness exposure studies")
    p.add_argument("mode", choices=["predict", "measure", "synth"])
    common(p)
    p.add_argument("--traj", default=None, help="trajectory CSV path")
    p.add_argument("--vmax", type=_number(float, 0.0), default=0.0,
                   help="hand-speed ceiling, m/s (synth and predict need one above 0)")
    p.add_argument("--fs", type=_number(float, 0.0), default=0.0,
                   help="sampling rate, Hz (0: predict and measure take the file's)")
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--fraction", type=float, default=0.8,
                   help="share of steps below the ceiling (synth)")
    p.set_defaults(fn=cmd_sickness)

    p = sub.add_parser("probe", help="real-datagram endpoint pair: serve on the slave "
                                     "host, measure on the master")
    p.add_argument("mode", choices=["serve", "measure"])
    common(p, config=False)
    p.add_argument("--bind", default="127.0.0.1:9870", help="serve: local bind address")
    p.add_argument("--local", default="127.0.0.1:0", help="measure: local bind address")
    p.add_argument("--remote", default="127.0.0.1:9870", help="measure: responder address")
    p.add_argument("--count", type=_number(int, 0), default=20,
                   help="packets to send/echo (0: serve echoes forever)")
    p.add_argument("--interval-ms", type=_number(float, 0.0, most=_WAIT_MAX_MS), default=1.0)
    p.add_argument("--packet-size", type=_number(int, MIN_PACKET_BYTES), default=MIN_PACKET_BYTES)
    p.add_argument("--deadline-ms", type=_number(float, 0.0, above=True, most=_WAIT_MAX_MS),
                   default=1000.0)
    p.add_argument("--plant-config", default=None,
                   help="serve a full teleoperator plant from this experiment config")
    p.set_defaults(fn=cmd_probe)

    return parser


def run_command(argv: list[str]) -> int:
    """Entry point with the documented exit-code contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if not getattr(args, "subcommand", None):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TcpsbenchError as exc:
        print(f"experiment error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
