"""tcpsbench benchmark.

One workload per run:

    python3 perfbench/run.py --workload curve-impaired --seed 0 --seconds 15 --trace 0

With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics of a separately traced run. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's conditions and machine facts.

Every workload and both modes, as a table plus a JSON summary:

    python3 perfbench/run.py --all                # 15 s per run
    python3 perfbench/run.py --all --seconds 1    # quick mode, for smoke tests

The program is imported from src/ of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedProbe, to_reference
from tracing import Tracer, instrument, op_counters, op_timings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# wire-probe is not in BENCHMARK.json: loopback round trips on a shared host
# drift too much to gate on (see README.md), so it runs only by name and in --all
WORKLOAD_NAMES = ("curve-impaired", "netsim-loaded", "sickness-replay", "wire-probe")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60.0
BASELINE_S = 1.0  # untraced operations before a traced run, for its overhead
# a set-up child runs SETUP_PRELUDE + workload.setup_code, reports readiness,
# then the calibration kernel's time on its CPU
SETUP_PRELUDE = """\
import sys
import tcpsbench
from tcpsbench.experiments import load_experiment
"""
SETUP_READY = "ready"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# reported in the conditions line and the --all table, not gated: failed_frac
# is 0 when all is well, and the round trip exists on wire-probe only
END_TO_END_EXTRA = {"failed_frac": "ratio", "rtt_us_p50": "us", "rtt_us_p99": "us"}

COUNTERS = ("qoc.trials_total", "qoc.trials_distinct", "qoc.grid_points", "qoc.probe_rejects",
            "qoc.cap_hits", "qoc.trial_errors", "loopsim.trials", "clock.events",
            "core.extract_calls", "transport.sends", "transport.drops",
            "transport.checksum_rejects", "netsim.sends", "netsim.tail_drops",
            "sickness.feedback_samples", "sickness.position_calls")
TIMINGS = {"experiments.load_s": "s", "cli.self_s": "s", "qoc.self_s": "s",
           "loopsim.self_s": "s", "loopsim.trial_ms_p50": "ms", "loopsim.trial_ms_p99": "ms",
           "clock.self_s": "s", "core.self_s": "s", "core.extract_us_p50": "us",
           "transport.self_s": "s", "transport.send_us_p50": "us", "transport.encode_us_p50": "us",
           "transport.decode_us_p50": "us", "netsim.self_s": "s", "netsim.send_us_p50": "us",
           "sickness.self_s": "s", "sickness.position_us_p50": "us"}
PER_LAYER = {**{name: "count" for name in COUNTERS}, **TIMINGS,
             "qoc.distinct_ratio": "ratio", "clock.events_per_trial": "count",
             "trace.overhead_ratio": "ratio"}


def _loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def _machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def measure_setup(workload, repeats: int) -> float:
    """Median time from starting a fresh interpreter to a built experiment,
    ready for its first trial or packet, in reference seconds. Each child
    times the calibration kernel right after it is ready, on its own CPU."""
    code = (SETUP_PRELUDE + workload.setup_code
            + f"print({SETUP_READY!r}, flush=True)\n"
            + "from speed import kernel_seconds\nprint(kernel_seconds())\n")
    cmd = [sys.executable, "-c", code, str(workload.config_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              cwd=ROOT, env=env, text=True) as child:
            ready = child.stdout.readline().strip()
            wall = time.perf_counter() - t0
            kernel = child.stdout.readline().strip()
            rc = child.wait(timeout=SETUP_TIMEOUT_S)
        if ready != SETUP_READY or rc != 0:
            raise RuntimeError(f"set-up child failed (exit {rc}, said {ready!r})")
        times.append(to_reference(wall, float(kernel)))
    return statistics.median(times)


def timed_op(workload, probe: SpeedProbe | None = None) -> tuple[float, float, list[str]]:
    """Run and check one operation. Returns its wall time, its time in
    reference seconds (wall time when no probe runs) and the problems found."""
    def op():
        try:
            return workload.op(), None
        except Exception as exc:  # an operation that raises counts as failed
            return None, exc

    if probe is None:
        t0 = time.perf_counter()
        output, exc = op()
        wall = scaled = time.perf_counter() - t0
    else:
        wall, scaled, (output, exc) = probe.measure(op)
    if exc is not None:
        return wall, scaled, [f"{type(exc).__name__}: {exc}"]
    return wall, scaled, workload.check(output)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)


def run_untraced(workload, seconds: float, tally: Tally, conditions: dict) -> dict:
    setup_s = measure_setup(workload, SETUP_REPEATS)
    with SpeedProbe() as probe:
        workload.clock = probe.clock
        workload.warm_up()
        walls, scaled = [], []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, ref, problems = timed_op(workload, probe)
            tally.add(problems)
            walls.append(wall)
            scaled.append(ref)
    conditions["ops"] = len(walls)
    conditions["wall_run_s"] = statistics.median(walls)
    conditions["probe_kernel_ms_p50"] = statistics.median(probe.samples) * 1e3
    return {"setup_s": setup_s, "run_s": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_traced(workload, seconds: float, tally: Tally, conditions: dict) -> dict:
    """Untraced operations for about a second as the overhead baseline, then
    traced operations for `seconds`. Work counters come from the first
    traced operation and must repeat exactly in the others."""
    workload.warm_up()
    untraced = []
    deadline = time.perf_counter() + BASELINE_S
    while not untraced or time.perf_counter() < deadline:
        elapsed, _, problems = timed_op(workload)
        tally.add(problems)
        untraced.append(elapsed)
    untraced_s = statistics.median(untraced)
    tracer = Tracer()
    instrument(tracer)
    counters = None
    per_op: list[dict] = []
    times = []
    try:
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            tracer.reset()
            elapsed, _, problems = timed_op(workload)
            snap = tracer.snapshot()
            counts = op_counters(snap)
            if counters is None:
                counters = counts
            elif counts != counters:
                problems = problems + ["work counters differ between traced repetitions"]
            tally.add(problems)
            times.append(elapsed)
            per_op.append(op_timings(snap))
    finally:
        tracer.uninstall()
    conditions["ops"] = len(times) + len(untraced)
    conditions["untraced_op_s"] = untraced_s
    metrics = {name: counters[name] for name in COUNTERS}
    metrics.update({name: statistics.median(op[name] for op in per_op) for name in TIMINGS})
    trials = counters["loopsim.trials"]
    units = trials or counters["sickness.replays"]
    metrics["qoc.distinct_ratio"] = (counters["qoc.trials_distinct"] / counters["qoc.trials_total"]
                                     if counters["qoc.trials_total"] else 0.0)
    metrics["clock.events_per_trial"] = counters["clock.events"] / units if units else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(times) / untraced_s
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    conditions = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  **_machine(), "loadavg_start": _loadavg()}
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    workload = None
    try:
        workload = WORKLOADS[name](seed, workdir)
        if trace:
            values = run_traced(workload, seconds, tally, conditions)
            units = PER_LAYER
        else:
            values = run_untraced(workload, seconds, tally, conditions)
            units = END_TO_END
        conditions.update(workload.facts())
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    conditions["failed_frac"] = tally.failed / tally.attempted
    conditions["loadavg_end"] = _loadavg()
    print(json.dumps({"conditions": conditions}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["conditions"], json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    print(f"{'workload':<16} {'metric':<28} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        cond, plain = _run_child(name, seed, seconds, 0)
        cond_t, traced = _run_child(name, seed, seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        rows = {k: (m["value"], m["unit"]) for k, m in plain["metrics"].items()}
        rows["failed_frac"] = (failed / attempted, END_TO_END_EXTRA["failed_frac"])
        for key in ("rtt_us_p50", "rtt_us_p99"):
            if key in cond:
                rows[key] = (cond[key], END_TO_END_EXTRA[key])
        rows.update({k: (m["value"], m["unit"]) for k, m in traced["metrics"].items()})
        for metric, (value, unit) in rows.items():
            print(f"{name:<16} {metric:<28} {value:>14.6g}  {unit}")
        summary[name] = {"correct": plain["correct"] and traced["correct"],
                         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rows.items()},
                         "conditions": {"untraced": cond, "traced": cond_t}}
    print(json.dumps({"all": summary}))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    args = parser.parse_args(argv)
    if not (SRC / "tcpsbench" / "__init__.py").is_file():
        print(f"tcpsbench sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    sys.path.insert(0, str(SRC))
    import tcpsbench

    if Path(tcpsbench.__file__).resolve().parent != SRC / "tcpsbench":
        print(f"imported tcpsbench from {tcpsbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
