"""Golden digest of the CLI's artifacts.

One sha256 digest covers every artifact byte of these runs:
- `step` on every bundled preset, at two seeds;
- `curve` on testbed-overhead-like, whose probes reject grid points and
  meet malformed curves;
- `qoc` on usnet-nw;
- `netsim` on usnet-nw, idle and loaded, at two placements;
- `step` and `netsim` on a loaded usnet-nw copy with a queue cap, so that
  packets are tail-dropped in both directions;
- `netsim` on a small ring whose cross traffic chases itself round;
- `sickness synth`, and `sickness measure` of that trajectory on every
  preset.

A change below the CLI that alters any trial, verdict or table fails this
test, bit for bit; the runs cost about 2 s. Paths under the test's
temporary directory are hashed as `<tmp>`. Never edit the digest: it pins
the results every later engine must keep.
"""

import hashlib
import json

from tcpsbench.cli import EXIT_OK, run_command
from tcpsbench.experiments import PRESET_NAMES, load_config

ARTIFACT_DIGEST = "ff5a651944012796fdbd494e00a0c1a5978b2419f3ed4c5027ef45b40bd21f25"


def _configs(tmp):
    """The capped usnet-nw copy and the ring, as config files under tmp."""
    capped = load_config("usnet-nw")
    capped["channel"]["queue_cap"] = 3
    # the flows of `netsim --pairs 16 --rates 500000`, for the step runs
    capped["channel"]["flows"] = [{"src": f"{a}{i}", "dst": f"{b}{i}", "rate_bps": 500_000.0,
                                   "pkt_bytes": 64}
                                  for i in range(16) for a, b in (("m", "n"), ("n", "m"))]
    # a capped queue under load takes every packet through the sequential
    # loop, so the capped search runs a short grid with few trials
    capped["search"].update(deltas=[4.5, 5.0, 5.5], m_max=10, m_batch=10)
    n = 5
    switches = [f"S{k}" for k in range(n)]
    # pair i joins S_i to S_{i+2}: two hops one way round, three the other,
    # so every flow leaves its switch the same way round the ring
    hosts = {**{f"m{i}": switches[i] for i in range(n)},
             **{f"n{i}": switches[(i + 2) % n] for i in range(n)}}
    ring = {
        "loop": {"delta_ms": 2.0, "sweep_len": 40, "seed": 2},
        "channel": {"type": "topology", "queue_cap": 4, "topology": {
            "switches": switches,
            "links": [[switches[k], switches[(k + 1) % n], 0.2, 2_000_000] for k in range(n)],
            "hosts": hosts, "te_master": "S0", "te_slave": "S2"}},
        "search": {"delta_min_ms": 1.0, "delta_max_ms": 4.0, "delta_step_ms": 0.5,
                   "m_max": 40, "m_batch": 10, "seed": 5},
    }
    paths = []
    for name, cfg in (("capped", capped), ("ring", ring)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(str(path))
    return paths


def _runs(tmp):
    capped, ring = _configs(tmp)
    for preset in PRESET_NAMES:
        for seed in ("1", "7"):
            yield ["step", "--config", preset, "--seed", seed]
    yield ["curve", "--config", "testbed-overhead-like", "--gspec-list", "0.5,0.7,0.9,0.95"]
    for seed in range(1, 8):  # tail drops in both directions
        yield ["step", "--config", capped, "--seed", str(seed)]
    yield ["qoc", "--config", "usnet-nw", "--gspec", "0.9"]
    yield ["netsim", "--config", "usnet-nw", "--rates", "0,500000",
           "--placements", "S0:S8,S6:S8"]
    yield ["netsim", "--config", capped, "--rates", "500000", "--placements", "S0:S8"]
    yield ["netsim", "--config", ring, "--rates", "0,400000", "--pairs", "5"]
    traj = str(tmp / "synth" / "trajectory.csv")
    yield ["sickness", "synth", "--fs", "30", "--steps", "600", "--vmax", "0.02",
           "--fraction", "0.7", "--seed", "4"]
    for preset in PRESET_NAMES:
        yield ["sickness", "measure", "--config", preset, "--traj", traj, "--vmax", "0.02"]


def test_artifact_digest(tmp_path):
    h = hashlib.sha256()
    tmp = str(tmp_path).encode()
    for i, argv in enumerate(_runs(tmp_path)):
        out = tmp_path / ("synth" if argv[:2] == ["sickness", "synth"] else f"run{i}")
        assert run_command(argv + ["--out", str(out)]) == EXIT_OK, argv
        h.update(" ".join(argv).replace(str(tmp_path), "<tmp>").encode() + b"\n")
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\n" + path.read_bytes().replace(tmp, b"<tmp>"))
    assert h.hexdigest() == ARTIFACT_DIGEST
