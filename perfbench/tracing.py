"""Per-layer spans and work counters for the traced benchmark run.

The tracer wraps public functions of each tcpsbench layer from outside the
package (module attributes and class methods are swapped for timing
wrappers and restored afterwards). Each wrapped call is a span; a layer's
self time is the duration of its spans minus the part covered by nested
spans. Callbacks that the virtual clock or a channel later invokes are
attributed to the layer whose module defines them, so controller and plant
work inside the event loop counts as loopsim (or sickness), not clock.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "experiments", "qoc", "loopsim", "clock", "core", "transport",
          "netsim", "sickness")
_MODULE_LAYER = {f"tcpsbench.{name}": name for name in LAYERS}


class Spans:
    """Accumulated spans and counts: one per thread while tracing, merged
    into one by Tracer.snapshot()."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        self.objects: list = []


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list[Spans] = []
        self._patches: list[tuple[object, str, object]] = []
        self.objects: list = []  # channels whose stats are read at snapshot time

    def acc(self) -> Spans:
        a = getattr(self._local, "acc", None)
        if a is None:
            a = self._local.acc = Spans()
            with self._lock:
                self._accs.append(a)
        return a

    def call(self, layer: str, name: str | None, fn, args, kwargs):
        """Run fn as a span of `layer`; `name` also records its duration."""
        a = self.acc()
        stack = a.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dur
            a.self_s[layer] += dur - child
            if name is not None:
                a.samples[name].append(dur)

    def owned(self, fn):
        """Wrap a callback as a span of the layer whose module defines it."""
        layer = _MODULE_LAYER.get(getattr(fn, "__module__", None))
        if layer is None:
            return fn
        call = self.call

        def run_owned(*args, **kwargs):
            return call(layer, None, fn, args, kwargs)

        return run_owned

    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             before=None, after=None, error=None) -> None:
        """Replace owner.attr by a traced version.

        before(args) may return replacement args; after(args, result) and
        error(args, exc) observe the call outside its span.
        """
        original = getattr(owner, attr)
        call = self.call

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            try:
                result = call(layer, name, original, args, kwargs)
            except Exception as exc:
                if error is not None:
                    error(args, exc)
                raise
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count(self, name: str, n: int = 1) -> None:
        self.acc().counts[name] += n

    def note(self, name: str, item) -> None:
        self.acc().distinct[name].add(item)

    def reset(self) -> None:
        """Clear accumulated data between operations; call with no span open."""
        with self._lock:
            for a in self._accs:
                a.self_s.clear()
                a.counts.clear()
                a.samples.clear()
                a.distinct.clear()
        self.objects.clear()

    def snapshot(self) -> Spans:
        snap = Spans()
        with self._lock:
            for a in self._accs:
                for k, v in a.self_s.items():
                    snap.self_s[k] += v
                for k, v in a.counts.items():
                    snap.counts[k] += v
                for k, v in a.samples.items():
                    snap.samples[k].extend(v)
                for k, v in a.distinct.items():
                    snap.distinct[k] |= v
        snap.objects = list(self.objects)
        return snap

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> None:
    """Install the wrappers at every layer boundary the workloads cross.

    Names are patched where callers look them up: `from x import f` binds f
    in the importing module, so those bindings are wrapped there.
    """
    from tcpsbench import cli, clock, core, netsim, qoc, sickness, transport

    t = tracer

    # cli and experiments
    t.wrap(cli, "run_command", "cli")
    t.wrap(cli, "load_experiment", "experiments", name="experiments.load")

    # qoc: searches, estimates, probes and trials
    t.wrap(cli, "perf_curve", "qoc")
    t.wrap(cli, "find_delta_opt_bar", "qoc")

    def estimate_done(args, est):
        t.note("qoc.grid_points", args[1])
        if est.m_cap_exceeded:
            t.count("qoc.cap_hits")

    t.wrap(qoc, "estimate_goodness", "qoc", after=estimate_done)

    def probe_done(args, rejected):
        t.note("qoc.grid_points", args[1])
        if rejected:
            t.count("qoc.probe_rejects")

    t.wrap(qoc, "_rejectable", "qoc", after=probe_done)

    def trial_started(args):
        t.count("qoc.trials_total")
        t.note("qoc.trials_distinct", (args[1], args[2]))
        return args

    t.wrap(qoc.StepRunner, "run", "qoc", before=trial_started)

    # core: metric extraction, with failures other than "no step" counted
    def extract_failed(args, exc):
        if not isinstance(exc, core.NoStepDetected):
            t.count("qoc.trial_errors")

    for owner in (qoc, cli):
        t.wrap(owner, "extract_metrics", "core", name="core.extract", error=extract_failed)

    # loopsim: one step experiment per trial
    def trial_run(args):
        t.count("loopsim.trials")
        return args

    for owner in (qoc, cli):
        t.wrap(owner, "run_step_experiment", "loopsim", name="loopsim.trial", before=trial_run)

    # clock: every scheduled event, run as a span of the layer that owns it
    def scheduled(args):
        t.count("clock.events")
        return (args[0], args[1], t.owned(args[2])) + args[3:]

    t.wrap(clock.EventScheduler, "schedule", "clock", before=scheduled)
    t.wrap(clock.EventScheduler, "run", "clock")

    # transport: simulated channel, codec and datagram adapter
    def impaired_send(args):
        t.count("transport.sends")
        return args[:4] + (t.owned(args[4]),)

    t.wrap(transport.ImpairedChannel, "send", "transport", name="transport.send",
           before=impaired_send)

    def transit_done(args, t_deliver):
        if t_deliver is None:
            t.count("transport.drops")

    t.wrap(transport.ImpairedChannel, "transit_time", "transport", after=transit_done)
    t.wrap(transport.ImpairedChannel, "__init__", "transport")

    def datagram_send(args):
        t.count("transport.sends")
        return args

    t.wrap(transport.DatagramEndpoint, "send_packet", "transport", name="transport.send",
           before=datagram_send)
    t.wrap(transport, "encode", "transport", name="transport.encode")

    def decode_failed(args, exc):
        if isinstance(exc, (transport.ChecksumMismatch, transport.TruncatedPacket)):
            t.count("transport.checksum_rejects")

    t.wrap(transport, "decode", "transport", name="transport.decode", error=decode_failed)

    # netsim: tactile sends; cross traffic runs as netsim-owned events
    def netsim_send(args):
        t.count("netsim.sends")
        return args[:4] + (t.owned(args[4]),)

    t.wrap(netsim.NetsimChannel, "send", "netsim", name="netsim.send", before=netsim_send)

    def netsim_built(args, _none):
        t.objects.append(args[0])

    t.wrap(netsim.NetsimChannel, "__init__", "netsim", after=netsim_built)
    t.wrap(netsim.NetsimChannel, "bind", "netsim")

    # sickness: replay, trajectory reads and the hand-position lookup
    def replay_done(args, report):
        t.count("sickness.replays")
        t.count("sickness.feedback_samples", report.n_samples)

    t.wrap(cli, "measure_E", "sickness", after=replay_done)
    t.wrap(cli, "read_trajectory_csv", "sickness")

    def position_lookup(args):
        t.count("sickness.position_calls")
        return args

    t.wrap(sickness.HandTrajectory, "position_at", "sickness", name="sickness.position",
           before=position_lookup)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def op_counters(snap: Spans) -> dict[str, int]:
    """Exact work counts of one operation; these must repeat between runs."""
    from tcpsbench.transport import BACKWARD, FORWARD

    c = snap.counts
    tail_drops = sum(ch.stats[FORWARD].dropped + ch.stats[BACKWARD].dropped
                     for ch in snap.objects)
    return {
        "qoc.trials_total": c["qoc.trials_total"],
        "qoc.trials_distinct": len(snap.distinct["qoc.trials_distinct"]),
        "qoc.grid_points": len(snap.distinct["qoc.grid_points"]),
        "qoc.probe_rejects": c["qoc.probe_rejects"],
        "qoc.cap_hits": c["qoc.cap_hits"],
        "qoc.trial_errors": c["qoc.trial_errors"],
        "loopsim.trials": c["loopsim.trials"],
        "clock.events": c["clock.events"],
        "core.extract_calls": len(snap.samples["core.extract"]),
        "transport.sends": c["transport.sends"],
        "transport.drops": c["transport.drops"],
        "transport.checksum_rejects": c["transport.checksum_rejects"],
        "netsim.sends": c["netsim.sends"],
        "netsim.tail_drops": tail_drops,
        "sickness.feedback_samples": c["sickness.feedback_samples"],
        "sickness.position_calls": c["sickness.position_calls"],
        "sickness.replays": c["sickness.replays"],
    }


def op_timings(snap: Spans) -> dict[str, float]:
    """Per-layer times of one operation: self time per layer (s), the
    config load (s) and per-call percentiles (ms for trials, us otherwise)."""
    s = snap.samples
    out = {f"{layer}.self_s": snap.self_s[layer] for layer in LAYERS}
    out.update({
        "experiments.load_s": sum(s["experiments.load"]),
        "loopsim.trial_ms_p50": percentile(s["loopsim.trial"], 50) * 1e3,
        "loopsim.trial_ms_p99": percentile(s["loopsim.trial"], 99) * 1e3,
        "core.extract_us_p50": percentile(s["core.extract"], 50) * 1e6,
        "transport.send_us_p50": percentile(s["transport.send"], 50) * 1e6,
        "transport.encode_us_p50": percentile(s["transport.encode"], 50) * 1e6,
        "transport.decode_us_p50": percentile(s["transport.decode"], 50) * 1e6,
        "netsim.send_us_p50": percentile(s["netsim.send"], 50) * 1e6,
        "sickness.position_us_p50": percentile(s["sickness.position"], 50) * 1e6,
    })
    return out
