"""The benchmark's workloads: inputs made from a seed, one operation, and
the check of each operation's output.

Every workload drives tcpsbench from outside, in the benchmark's own
process, one operation at a time (a closed loop with one operation in
flight). The simulated workloads call the CLI entry point in-process; the
wire workload drives the datagram adapter directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import threading
from pathlib import Path
from random import Random
from time import perf_counter

from tcpsbench import cli
from tcpsbench.experiments import load_config
from tcpsbench.sickness import compliant_trajectory, write_trajectory_csv
from tcpsbench.transport import KIND_HAPTIC, KIND_KINEMATIC, DatagramEndpoint, Packet
from tracing import percentile

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text("utf-8"))
FLOAT_TOL = 1e-9


def run_cli(argv: list[str]) -> int:
    """One tcpsbench command, in-process; its stdout is dropped, since the
    benchmark's own last stdout line must be its result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_command(argv)  # looked up at call time so tracing applies


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def _scaled_preset(preset: str, seed: int, workdir: Path) -> tuple[Path, int]:
    """Write the preset with p_ref scaled by 2**k, k in [-8, 8] from the seed.

    The loop is linear in p_ref and scaling by a power of two is exact in
    binary floating point, so every result must equal the preset's own
    bit for bit while the program computes on different values. The search
    keeps the preset's seed: the search's size depends strongly on it.
    """
    k = (seed + 8) % 17 - 8
    cfg = load_config(preset)
    cfg["loop"]["p_ref"] = math.ldexp(cfg["loop"]["p_ref"], k)
    path = workdir / f"{preset}-pref{k}.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path, k


class Workload:
    name = ""
    # run by a fresh interpreter after run.SETUP_PRELUDE; sys.argv[1] is config_path
    setup_code = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.clock = perf_counter  # the harness may swap in a clock that skips its own probes
        self.config_path: Path | str = ""
        self._first: object = None

    def facts(self) -> dict:
        """Conditions of the finished run, for the benchmark's output."""
        return {}

    def warm_up(self) -> None:
        """Fill import-time and first-call caches before timing."""

    def op(self):
        raise NotImplementedError

    def problems(self, output) -> list[str]:
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Problems with one operation's output: the workload's own checks,
        plus agreement with the first operation of the run."""
        found = self.problems(output)
        if self._first is None:
            self._first = output
        elif output != self._first:
            found.append("output differs from the run's first repetition")
        return found

    def close(self) -> None:
        pass


class CurveImpaired(Workload):
    """QoC performance curve on a jittery impaired channel: qoc scan, loopsim
    trials, ImpairedChannel, clock and metric extraction; netsim idle."""

    name = "curve-impaired"
    gspecs = "0.5,0.7,0.9,0.95"
    setup_code = """\
exp = load_experiment(sys.argv[1])
runner = exp.runner()
runner.channel_factory(exp.search.trial_seed(0))
"""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config_path, self.pref_exp = _scaled_preset("testbed-overhead-like", seed, workdir)
        self.out = workdir / "curve"

    def facts(self) -> dict:
        return {"p_ref_scale_log2": self.pref_exp}

    def warm_up(self) -> None:
        run_cli(["step", "--config", str(self.config_path), "--out", str(self.out)])

    def op(self):
        rc = run_cli(["curve", "--config", str(self.config_path),
                         "--gspec-list", self.gspecs, "--out", str(self.out)])
        if rc != 0:
            return {"rc": rc}
        csv_text = (self.out / "perf_curve.csv").read_text(encoding="utf-8")
        rows = [[float(v) for v in line.split(",")] for line in csv_text.splitlines()[1:]]
        summary = (self.out / "perf_curve.txt").read_text(encoding="utf-8")
        points = []
        for line in summary.splitlines():
            if line.startswith("g_achieved:"):
                g, rest = line[len("g_achieved:"):].split("(")
                points.append({"g": float(g), "m": int(rest.split("m=")[1].rstrip(")")),
                               "capped": False})
            elif line.startswith("m_cap_exceeded: true"):
                points[-1]["capped"] = True
        return {"rc": rc, "rows": rows, "points": points,
                "missing": "missing:" in summary}

    def problems(self, out) -> list[str]:
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        found = []
        rows, points = out["rows"], out["points"]
        if out["missing"] or len(rows) != len(points):
            found.append("curve is missing targets")
        for (g_spec, delta, t_r, qoc, vmax), p in zip(rows, points):
            if p["g"] < g_spec and not p["capped"]:
                found.append(f"g {p['g']} below g_spec {g_spec} without a cap hit")
            if not _close(qoc, math.log10(1.5 / t_r)) or not _close(vmax, min(1.0, 10 ** qoc)):
                found.append(f"qoc/v_max inconsistent with t_r at g_spec {g_spec}")
        qocs = [r[3] for r in rows]
        if any(b > a for a, b in zip(qocs, qocs[1:])):
            found.append("curve is not non-increasing")
        ref = REFERENCE[self.name]
        if len(rows) != len(ref["rows"]):
            return found + ["row count differs from the reference"]
        for row, ref_row, p, ref_p in zip(rows, ref["rows"], points, ref["points"]):
            if row[:2] != ref_row[:2] or p["m"] != ref_p["m"] or p["capped"] != ref_p["capped"]:
                found.append(f"grid value, m or cap differs from the reference: {row} {p}")
            if not all(_close(a, b) for a, b in zip(row[2:] + [p["g"]], ref_row[2:] + [ref_p["g"]])):
                found.append(f"value differs from the reference: {row}")
        return found


class NetsimLoaded(Workload):
    """Topology QoC search under cross traffic: about 99% of the clock events
    are cross-traffic packets, so netsim and clock dominate."""

    name = "netsim-loaded"
    argv = ["--gspec", "0.9", "--rates", "500000", "--placements", "S0:S8",
            "--pairs", "16", "--flow-pkt-bytes", "64"]
    setup_code = """\
from tcpsbench.netsim import Topology, channel_from_topology, pair_flows
exp = load_experiment(sys.argv[1])
topo = exp.channel.topology
placed = Topology(switches=topo.switches, links=topo.links, hosts=topo.hosts,
                  te_master="S0", te_slave="S8")
channel_from_topology(placed, pair_flows(16, 500000.0, 64), exp.search.trial_seed(0))
"""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config_path, self.pref_exp = _scaled_preset("usnet-nw", seed, workdir)
        self.out = workdir / "netsim"

    def facts(self) -> dict:
        return {"p_ref_scale_log2": self.pref_exp}

    def warm_up(self) -> None:
        run_cli(["step", "--config", str(self.config_path), "--out", str(self.out)])

    def op(self):
        rc = run_cli(["netsim", "--config", str(self.config_path), *self.argv,
                         "--out", str(self.out)])
        if rc != 0:
            return {"rc": rc}
        lines = (self.out / "netsim.csv").read_text(encoding="utf-8").splitlines()
        return {"rc": rc, "rows": [line.split(",") for line in lines[1:]]}

    def problems(self, out) -> list[str]:
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        rows = out["rows"]
        ref = REFERENCE[self.name]["row"]
        if len(rows) != 1 or len(rows[0]) != len(ref):
            return [f"expected one netsim row, got {rows}"]
        row = rows[0]
        found = []
        if row[:4] != ref[:4]:
            found.append(f"placement, rate or delta differs from the reference: {row}")
        t_r, qoc, vmax = (float(v) for v in row[4:])
        if not all(_close(a, float(b)) for a, b in zip((t_r, qoc, vmax), ref[4:])):
            found.append(f"value differs from the reference: {row}")
        if not _close(qoc, math.log10(1.5 / t_r)) or not _close(vmax, min(1.0, 10 ** qoc)):
            found.append("qoc/v_max inconsistent with t_r")
        return found


class SicknessReplay(Workload):
    """Cybersickness replay of three long trajectories through the tactile-only
    netsim path with robot lag: clock, netsim and sickness, no search."""

    name = "sickness-replay"
    rates_hz = (20.0, 30.0, 40.0)
    steps = 12_000
    vmax = 0.02
    setup_code = """\
exp = load_experiment(sys.argv[1])
exp.channel.factory(exp.loop.seed)
"""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = Random(seed)
        self.config_path = "vrep-like"
        self.trajectories = []
        for i, fs in enumerate(self.rates_hz):
            fraction = rng.randrange(60, 96) / 100.0
            traj = compliant_trajectory(fs, self.steps, self.vmax, fraction, seed * 3 + i)
            path = workdir / f"trajectory-{i}.csv"
            write_trajectory_csv(traj, str(path))
            self.trajectories.append((path, round(fraction * self.steps)))

    def facts(self) -> dict:
        return {"slow_steps": [n for _, n in self.trajectories]}

    def op(self):
        results = []
        for i, (path, _) in enumerate(self.trajectories):
            out = self.workdir / f"sickness-{i}"
            rc = run_cli(["sickness", "measure", "--config", str(self.config_path),
                             "--traj", str(path), "--vmax", repr(self.vmax),
                             "--seed", str(self.seed), "--out", str(out)])
            if rc != 0:
                results.append({"rc": rc})
                continue
            fields = dict(line.split(": ", 1) for line in
                          (out / "sickness.txt").read_text(encoding="utf-8").splitlines())
            results.append({"rc": rc, "predicted": float(fields["predicted_E_pct"]),
                            "measured": float(fields["measured_E_pct"]),
                            "n_samples": int(fields["n_samples"])})
        return results

    def problems(self, results) -> list[str]:
        found = []
        ref = REFERENCE[self.name]["seeds"].get(str(self.seed))
        for i, (res, (_, n_slow)) in enumerate(zip(results, self.trajectories)):
            if res["rc"] != 0:
                found.append(f"trajectory {i}: exit code {res['rc']}")
                continue
            if res["predicted"] != 100.0 * n_slow / self.steps:
                found.append(f"trajectory {i}: predicted E {res['predicted']} is not the "
                             f"constructed {n_slow}/{self.steps}")
            if not 0.0 <= res["measured"] <= 100.0 or not 0 < res["n_samples"] <= self.steps + 1:
                found.append(f"trajectory {i}: measured E or sample count out of range: {res}")
            if ref is not None:
                r = ref[i]
                if (res["n_samples"] != r["n_samples"] or res["predicted"] != r["predicted"]
                        or not _close(res["measured"], r["measured"])):
                    found.append(f"trajectory {i}: differs from the reference: {res}")
        return found


class WireProbe(Workload):
    """Real 256-byte datagrams over the host loopback, echoed by one responder
    thread: the only workload that runs the wire codec and DatagramEndpoint."""

    name = "wire-probe"
    packet_size_b = 256
    packets = 1000
    deadline_ms = 2000.0
    stop_kind = 2
    setup_code = """\
from tcpsbench.transport import DatagramEndpoint
server = DatagramEndpoint(("127.0.0.1", 0), packet_size_b=256)
client = DatagramEndpoint(("127.0.0.1", 0), server.local_address, packet_size_b=256)
"""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = Random(seed)
        self.values = [(rng.uniform(0.0, 100.0), rng.uniform(-1000.0, 1000.0))
                       for _ in range(self.packets)]
        # the codec carries x and value as fixed-point thousandths
        self.expected = [(KIND_HAPTIC, seq, seq, round(x * 1000) / 1000, round(v * 1000) / 1000)
                         for seq, (x, v) in enumerate(self.values)]
        self.rtt_percentiles: list[tuple[float, float]] = []  # (p50, p99) of each operation
        self.server = DatagramEndpoint(("127.0.0.1", 0), packet_size_b=self.packet_size_b,
                                       seed=seed)
        self.client = DatagramEndpoint(("127.0.0.1", 0), self.server.local_address,
                                       packet_size_b=self.packet_size_b, seed=seed + 1)
        self.responder = threading.Thread(target=self._echo, name="wire-probe-responder",
                                          daemon=True)
        self.responder.start()

    def _echo(self) -> None:
        while True:
            pkt, addr = self.server.recv_packet(None)
            if pkt.kind == self.stop_kind:
                return
            self.server.send_packet(Packet(kind=KIND_HAPTIC, seq=pkt.seq, epoch=pkt.epoch,
                                           x=pkt.x, value=pkt.value), to=addr)

    def facts(self) -> dict:
        facts = {"loopback": True, "packet_size_b": self.packet_size_b,
                 "packets_per_op": self.packets}
        if self.rtt_percentiles:
            facts["rtt_us_p50"] = statistics.median(p50 for p50, _ in self.rtt_percentiles) * 1e6
            facts["rtt_us_p99"] = statistics.median(p99 for _, p99 in self.rtt_percentiles) * 1e6
        return facts

    def warm_up(self) -> None:
        self.op()
        self.rtt_percentiles.clear()

    def op(self):
        echoes, rtts = [], []
        for seq, (x, value) in enumerate(self.values):
            t0 = self.clock()
            self.client.send_packet(Packet(kind=KIND_KINEMATIC, seq=seq, epoch=seq,
                                           x=x, value=value))
            while True:
                echo, _ = self.client.recv_packet(self.deadline_ms)
                if echo.seq == seq:
                    break
            rtts.append(self.clock() - t0)
            echoes.append((echo.kind, echo.seq, echo.epoch, echo.x, echo.value))
        self.rtt_percentiles.append((percentile(rtts, 50), percentile(rtts, 99)))
        return echoes

    def problems(self, echoes) -> list[str]:
        found = []
        if echoes != self.expected:
            found.append("echoed seq/value round-trips differ from what was sent")
        ref = REFERENCE[self.name]["seeds"].get(str(self.seed))
        if ref is not None and (len(echoes) != ref["echoes"]
                                or not _close(sum(e[4] for e in echoes), ref["value_sum"])):
            found.append("echo count or value sum differs from the reference")
        return found

    def close(self) -> None:
        try:
            self.client.send_packet(Packet(kind=self.stop_kind, seq=0, epoch=0, x=0.0, value=0.0),
                                    to=self.server.local_address)
            self.responder.join(timeout=5.0)
        finally:
            self.client.close()
            self.server.close()


WORKLOADS = {w.name: w for w in (CurveImpaired, NetsimLoaded, SicknessReplay, WireProbe)}
