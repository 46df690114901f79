"""The benchmark's tracer must find every name it wraps.

perfbench/tracing.py swaps functions and methods of each tcpsbench layer for
timing wrappers. A refactor that renames or removes one of them breaks the
traced benchmark run; this test finds that in well under a second, instead
of in the minute-long quick mode of perfbench/test_smoke.py. It also checks
that the channel hooks still see the traffic they count.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from tcpsbench import cli, transport
from tcpsbench.clock import EventScheduler
from tcpsbench.netsim import Link, Topology, TrafficFlow, channel_from_topology
from tcpsbench.sickness import compliant_trajectory, write_trajectory_csv
from tcpsbench.transport import FORWARD, ChannelModel, LinkParams

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    send = transport.ImpairedChannel.send
    tracing.instrument(tracer)
    try:
        assert transport.ImpairedChannel.send is not send
        sched = EventScheduler()
        lossy = ChannelModel(forward=LinkParams(drop_prob=1.0)).build(0)
        lossy.bind(sched)
        lossy.send(FORWARD, "x", 32, lambda p: None)
        sched.run()
        counts = tracing.op_counters(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert transport.ImpairedChannel.send is send
    assert counts["transport.sends"] == 1
    assert counts["transport.drops"] == 1


def test_cross_traffic_round_trip_is_neither_a_send_nor_an_event():
    """A round trip under cross traffic runs off the clock: the tracer
    counts no netsim send and no clock event, and its tactile tail drops
    through the channel's stats."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        topo = Topology(switches=("s0", "s1", "s2"),
                        links=(Link("s0", "s1", 0.5, 1e6), Link("s1", "s2", 0.5, 1e6)),
                        hosts={"a": "s0", "b": "s2"}, te_master="s0", te_slave="s2")
        chan = channel_from_topology(topo, (TrafficFlow("a", "b", 5e5, 64),), 0, queue_cap=1)
        fwd, picked, bwd = chan.round_trip(0.1 * np.arange(20), 32, 2.0)
        counts = tracing.op_counters(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert counts["netsim.sends"] == 0
    assert counts["clock.events"] == 0
    assert counts["netsim.tail_drops"] == int(np.isnan(fwd).sum() + np.isnan(bwd[picked]).sum()) > 0


def test_sickness_replay_is_counted_without_the_clock(tmp_path):
    """A traced `sickness measure` on the tactile-only vrep-like topology
    counts its feedback samples through the cli.measure_E hook and runs no
    clock event."""
    traj = tmp_path / "traj.csv"
    write_trajectory_csv(compliant_trajectory(30.0, 300, 0.02, 0.8, seed=1), str(traj))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run_command(["sickness", "measure", "--config", "vrep-like",
                                  "--traj", str(traj), "--vmax", "0.02",
                                  "--out", str(tmp_path / "out")])
        counts = tracing.op_counters(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert rc == 0
    fields = dict(line.split(": ", 1) for line in
                  (tmp_path / "out" / "sickness.txt").read_text().splitlines())
    assert counts["sickness.feedback_samples"] == int(fields["n_samples"]) > 0
    assert counts["clock.events"] == 0
