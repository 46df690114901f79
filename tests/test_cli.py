"""Command-line front-end: artifacts, manifests, exit codes."""

import _random
import argparse
import json
import os
import resource
import socket
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from curves import read_curve_csv
from tcpsbench import cli, netsim
from tcpsbench.cli import EXIT_CONFIG, EXIT_EXPERIMENT, EXIT_OK, run_command
from tcpsbench.core import extract_metrics
from tcpsbench.experiments import load_experiment
from tcpsbench.loopsim import MAX_SWEEP_LEN, LoopConfig
from tcpsbench.qoc import MAX_GRID_POINTS


def run(args):
    return run_command([str(a) for a in args])


def run_limited(args, tmp_path) -> subprocess.CompletedProcess:
    """Runs the CLI in a child process under a 2 GiB address-space limit
    and a 60 s timeout, so a run that would fill memory fails alone."""
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    return subprocess.run([sys.executable, "-m", "tcpsbench.cli", *map(str, args),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=limit)


def free_port() -> int:
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def wait_until_bound(port: int, timeout_s: float = 5.0) -> None:
    """Poll a loopback UDP port with one-byte datagrams until the kernel stops
    refusing them. The responders skip undecodable datagrams, so the polls
    cost them nothing."""
    deadline = time.monotonic() + timeout_s
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.connect(("127.0.0.1", port))
        s.settimeout(0.05)
        while time.monotonic() < deadline:
            s.send(b"?")
            try:
                s.recv(1)
            except ConnectionRefusedError:
                time.sleep(0.01)
                continue
            except socket.timeout:
                return
    raise AssertionError(f"nothing bound 127.0.0.1:{port} within {timeout_s} s")


class TestStep:
    def test_ideal_step_writes_good_curve(self, tmp_path):
        out = tmp_path / "run"
        assert run(["step", "--config", "ideal", "--out", out]) == EXIT_OK
        curve = read_curve_csv(str(out / "curve.csv"), LoopConfig())
        metrics = extract_metrics(curve)
        assert 1.3 <= metrics.t_r <= 1.7
        assert metrics.is_good
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "step"
        assert manifest["config"]["loop"]["seed"] == 1
        assert "curve.csv" in manifest["artifacts"]

    def test_byte_identical_artifacts_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["step", "--config", "testbed-overhead-like", "--seed", 5, "--out", a]) == EXIT_OK
        assert run(["step", "--config", "testbed-overhead-like", "--seed", 5, "--out", b]) == EXIT_OK
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_seed_changes_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["step", "--config", "testbed-overhead-like", "--seed", 5, "--out", a])
        run(["step", "--config", "testbed-overhead-like", "--seed", 6, "--out", b])
        assert (a / "curve.csv").read_bytes() != (b / "curve.csv").read_bytes()


class TestConfigErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_CONFIG

    def test_missing_subcommand(self):
        assert run([]) == EXIT_CONFIG

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "loop": {\n    "k_p": oops\n  }\n}\n')
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "ideal"}, "loop": {"k_pp": 1}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "k_pp" in capsys.readouterr().err

    def test_missing_channel_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"loop": {}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG

    def test_non_integer_queue_cap_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "topology", "topology": "usnet-nw",
                                               "queue_cap": "2"}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "queue_cap" in capsys.readouterr().err

    def test_bad_socket_address_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "socket", "remote": "localhost"}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "localhost" in capsys.readouterr().err

    @pytest.mark.parametrize("latency", ["-1.0", "NaN", "Infinity"])
    def test_bad_ideal_latency_rejected(self, tmp_path, capsys, latency):
        """A ValueError traceback (exit 1) before it was a config error."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": {"type": "ideal", "latency_each_way_ms": %s}}' % latency)
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "config error: invalid ideal channel: latency" in capsys.readouterr().err

    def test_sweep_len_past_numpys_index_exits_2(self, tmp_path, capsys):
        """An OverflowError traceback from run_step_batch (exit 1) before."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "ideal"}, "loop": {"sweep_len": 10**30}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "sweep_len" in capsys.readouterr().err

    @pytest.mark.parametrize("search", [
        {"delta_max_ms": 1e30, "delta_step_ms": 1e-320},
        {"delta_min_ms": 100.0, "delta_max_ms": 100.0, "delta_step_ms": 1e-15},
        {"delta_min_ms": 0.001, "delta_max_ms": 11.0, "delta_step_ms": 0.001},
    ], ids=["endless", "step below an ulp", "past the point bound"])
    def test_a_grid_too_fine_or_too_long_exits_2(self, search, tmp_path):
        """A grid of 1e30 / 1e-320 points filled memory (or ran for ever)
        before. A step below half an ulp of delta_min_ms does not advance
        it, and the 11 000 points from 0.001 ms to 11 ms are past
        qoc.MAX_GRID_POINTS. The search runs in a child process under an
        address-space limit and a timeout."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "ideal"}, "search": search}))
        done = run_limited(["qoc", "--config", bad, "--gspec", "0.9"], tmp_path)
        assert done.returncode == EXIT_CONFIG, done.stderr[-2000:]
        assert "delta_step_ms" in done.stderr or "grid" in done.stderr

    @pytest.mark.parametrize("sweep_len", [10**15, MAX_SWEEP_LEN + 1])
    def test_a_sweep_too_long_to_allocate_exits_2(self, sweep_len, tmp_path):
        """10**15 commands, below numpy's index bound, ended in an
        _ArrayMemoryError traceback (exit 1) before. The step runs in a child
        process under an address-space limit and a timeout."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "ideal"},
                                   "loop": {"sweep_len": sweep_len}}))
        done = run_limited(["step", "--config", bad], tmp_path)
        assert done.returncode == EXIT_CONFIG, done.stderr[-2000:]
        assert "sweep_len" in done.stderr and "Traceback" not in done.stderr

    def test_the_sweep_bound_is_a_valid_sweep(self):
        assert LoopConfig(sweep_len=MAX_SWEEP_LEN).sweep_len == MAX_SWEEP_LEN

    def test_every_preset_grid_is_within_the_point_bound(self):
        names = [f.name[:-5] for f in resources.files("tcpsbench.configs").iterdir()
                 if f.name.endswith(".json")]
        assert len(names) >= 4, names
        for name in names:
            grid = load_experiment(name).search.grid()
            assert 0 < len(grid) < MAX_GRID_POINTS, name

    @pytest.mark.parametrize("use", ["config", "topology", "plant-config"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, monkeypatch, capsys, use):
        """A UnicodeDecodeError traceback (exit 1) before; the message names
        the file."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "DatagramEndpoint", no_work)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"channel": {"type": "ideal"}}\xff')
        argv = {"config": ["step", "--config", bad],
                "topology": ["step", "--config", tmp_path / "topo.json"],
                "plant-config": ["probe", "serve", "--plant-config", bad]}[use]
        (tmp_path / "topo.json").write_text(
            json.dumps({"channel": {"type": "topology", "topology": str(bad)}}))
        assert run(argv + ["--out", tmp_path / "o"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: cannot read config" in err and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["qoc", "--gspec", "1.5"],
        ["curve", "--gspec-list", "0.9,0.5"],
        ["netsim", "--config", "usnet-nw", "--rates", "x"],
        ["netsim", "--config", "usnet-nw", "--placements", "S0"],
        ["probe", "measure", "--remote", "localhost"],
        ["probe", "serve", "--bind", "127.0.0.1:http"],
        # each of these used to fail after binding: a traceback (exit 1) from
        # the socket timeout or the sleep, a run that sent or echoed nothing
        # (exit 0), or a packet too small to encode (exit 3)
        ["probe", "measure", "--deadline-ms=-1"],
        ["probe", "measure", "--deadline-ms", "nan"],
        ["probe", "serve", "--deadline-ms=-1"],
        ["probe", "serve", "--deadline-ms", "nan"],
        ["probe", "measure", "--interval-ms", "inf"],
        ["probe", "measure", "--count=-1"],
        # sent 20 packets and recorded "count": 0 in its manifest (exit 0)
        ["probe", "measure", "--count", "0"],
        ["probe", "serve", "--count=-2"],
        ["probe", "measure", "--packet-size", "8"],
        # a wait past the platform's time range: an OverflowError traceback (exit 1);
        # a sleep just under threading.TIMEOUT_MAX seconds raised OSError (EINVAL)
        ["probe", "measure", "--deadline-ms", "1e15"],
        ["probe", "serve", "--deadline-ms", "1e15"],
        ["probe", "measure", "--interval-ms", "1e15"],
        ["probe", "measure", "--interval-ms", "9223372035000"],
        # a negative deadline ran and timed out (exit 3); nan turned it off (exit 0)
        ["step", "--deadline-ms=-1"],
        ["step", "--deadline-ms", "nan"],
        ["step", "--deadline-ms", "1e15"],
        # no rate: a header-only netsim.csv (exit 0)
        ["netsim", "--config", "usnet-nw", "--rates", ""],
        ["netsim", "--config", "usnet-nw", "--rates", ","],
        # Random() seeds with abs(): -1 replayed seed 1's streams (exit 0)
        ["step", "--config", "testbed-overhead-like", "--seed=-1"],
        ["sickness", "synth", "--fs", "30", "--vmax", "0.02", "--seed=-1"],
    ], ids=["gspec", "gspec-list", "rates", "placements", "remote", "bind",
            "measure-deadline-negative", "measure-deadline-nan", "serve-deadline-negative",
            "serve-deadline-nan", "interval-inf", "measure-count", "measure-count-zero",
            "serve-count", "packet-size", "measure-deadline-huge", "serve-deadline-huge",
            "interval-huge", "interval-past-sleep-range", "step-deadline-negative",
            "step-deadline-nan", "step-deadline-huge", "rates-empty", "rates-commas",
            "step-seed-negative", "synth-seed-negative"])
    def test_bad_argument_exits_2_before_any_work(self, argv, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("load_experiment", "perf_curve", "find_delta_opt_bar", "DatagramEndpoint"):
            monkeypatch.setattr(cli, name, no_work)
        assert run(argv + ["--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["step", "--config", "ideal"],
        ["vmax", "--qoc", "0"],
        ["sickness", "synth", "--fs", "30", "--vmax", "0.02"],
        # probe measure made its directory only after sending every packet
        ["probe", "measure"],
        ["probe", "serve", "--plant-config", "ideal"],
    ], ids=["step", "vmax", "synth", "probe-measure", "probe-serve-plant"])
    def test_unusable_out_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        """An --out below a regular file raised NotADirectoryError (exit 1)."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "DatagramEndpoint", no_work)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(argv + ["--out", blocker / "sub"]) == EXIT_CONFIG
        assert "config error: cannot use output directory" in capsys.readouterr().err

    def test_invalid_loop_constants_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "ideal"},
                                   "loop": {"k_p": 2.0, "k_2": 1.2}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("section", ["loop", "search"])
    def test_negative_config_seed_rejected(self, tmp_path, capsys, section):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "ideal"}, section: {"seed": -1}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_host_id_that_is_a_switch_id_exits_2(self, tmp_path, capsys):
        """Host S2 hid switch S2 from route, silently moving the tactile slave."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channel": {"type": "topology", "topology": {
            "switches": ["S0", "S1", "S2"],
            "links": [["S0", "S1", 0.1, 1e7], ["S1", "S2", 0.1, 1e7]],
            "hosts": {"S2": "S0", "h": "S2"}, "te_master": "S0", "te_slave": "S2"}}}))
        assert run(["step", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "host id 'S2' is also a switch id" in capsys.readouterr().err

    # 192.0.2.1 (TEST-NET-1) is never a local address, so bind fails and no packet leaves
    @pytest.mark.parametrize("argv, address", [
        (["probe", "serve", "--bind", "192.0.2.1:9870", "--count", 1], "192.0.2.1:9870"),
        (["probe", "measure", "--local", "192.0.2.1:0", "--remote", "127.0.0.1:9", "--count", 1],
         "192.0.2.1:0"),
        (["step", "--config", "SOCKET"], "192.0.2.1:0"),
    ], ids=["probe-serve", "probe-measure", "step"])
    def test_an_address_that_cannot_be_bound_exits_2(self, argv, address, tmp_path, capsys):
        """It used to end in an OSError traceback (exit 1)."""
        cfg = tmp_path / "sock.json"
        cfg.write_text(json.dumps({"channel": {"type": "socket", "local": "192.0.2.1:0",
                                               "remote": "127.0.0.1:9"}}))
        argv = [cfg if a == "SOCKET" else a for a in argv]
        assert run(argv + ["--out", tmp_path / "o"]) == EXIT_CONFIG
        assert f"config error: cannot bind {address}:" in capsys.readouterr().err

    def test_socket_packets_below_the_codec_floor_exit_2(self, tmp_path, monkeypatch, capsys):
        """packet_size_b 31 passed the config check; step then bound its
        socket and exited 3 with PacketTooSmall."""
        monkeypatch.setattr(cli, "DatagramEndpoint", None)  # nothing may bind
        cfg = tmp_path / "sock.json"
        cfg.write_text(json.dumps({"loop": {"packet_size_b": 31}, "channel": {
            "type": "socket", "local": "127.0.0.1:0", "remote": "127.0.0.1:9"}}))
        assert run(["step", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "packet_size_b of at least 32, got 31" in capsys.readouterr().err


class TestSharedParser:
    """run_command parses with one parser per process, built on the first command."""

    def test_parser_is_built_during_the_first_command_only(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["vmax", "--qoc", 0, "--out", tmp_path / "a"]) == EXIT_OK
        first = len(built)
        assert run(["vmax", "--qoc", 0, "--out", tmp_path / "b"]) == EXIT_OK
        assert first > 0
        assert len(built) == first

    @pytest.mark.parametrize("full, defaults", [
        (["step", "--config", "testbed-overhead-like", "--out", "o", "--seed", "5",
          "--delta-ms", "2.5", "--deadline-ms", "100"], ["step"]),
        (["delta-opt", "--config", "vrep-like", "--seed", "2"], ["delta-opt"]),
        (["qoc", "--gspec", "0.8", "--seed", "3"], ["qoc", "--gspec", "0.9"]),
        (["curve", "--gspec-list", "0.5,0.9", "--out", "o"], ["curve", "--gspec-list", "0.9"]),
        (["vmax", "--qoc", "1.5", "--t-r-ms", "3"], ["vmax"]),
        (["netsim", "--gspec", "0.8", "--rates", "0,500000", "--placements", "S0:S8,S1:S7",
          "--pairs", "4", "--flow-pkt-bytes", "32"], ["netsim"]),
        (["sickness", "measure", "--traj", "t.csv", "--vmax", "0.02", "--fs", "30",
          "--steps", "10", "--fraction", "0.5", "--seed", "1"], ["sickness", "synth"]),
        (["probe", "measure", "--local", "127.0.0.1:1", "--remote", "127.0.0.1:2",
          "--count", "3", "--interval-ms", "0", "--packet-size", "64",
          "--deadline-ms", "10"], ["probe", "serve"]),
    ], ids=["step", "delta-opt", "qoc", "curve", "vmax", "netsim", "sickness", "probe"])
    def test_shared_parse_equals_a_fresh_parsers(self, full, defaults):
        shared = cli.build_parser()
        for argv in (full, defaults, full):
            fresh = cli.build_parser.__wrapped__()
            assert vars(shared.parse_args(argv)) == vars(fresh.parse_args(argv))

    def test_nothing_carries_over_between_commands(self, tmp_path, capsys):
        assert run(["step", "--seed", 5, "--out", tmp_path / "a"]) == EXIT_OK
        assert run(["step", "--seed", "x"]) == EXIT_CONFIG
        assert run(["--help"]) == EXIT_OK
        assert run(["--version"]) == EXIT_OK
        assert run(["step", "--out", tmp_path / "b"]) == EXIT_OK
        seeds = [json.loads((tmp_path / d / "manifest.json").read_text())["config"]["loop"]["seed"]
                 for d in ("a", "b")]
        assert seeds == [5, 1]  # the ideal preset's own loop seed is 1

    def test_two_threads_share_the_parser(self, tmp_path, capsys):
        commands = [
            lambda k: ["step", "--seed", k],
            lambda k: ["step", "--config", "testbed-overhead-like", "--seed", k],
            lambda k: ["vmax", "--qoc", k / 4],
            lambda k: ["sickness", "synth", "--fs", 30, "--steps", 50 + k, "--vmax", 0.02,
                       "--seed", k],
            lambda k: ["sickness", "synth", "--fs", 20, "--steps", 60, "--vmax", 0.05,
                       "--fraction", 0.5 + k / 20],
        ]
        jobs = [(f"{i}-{k}", command(k)) for k in range(5) for i, command in enumerate(commands)]

        def run_all(root, codes):
            for name, argv in jobs:
                codes.append(run(argv + ["--out", root / name]))

        serial = []
        run_all(tmp_path / "serial", serial)
        assert serial == [EXIT_OK] * len(jobs)
        cli.build_parser.cache_clear()  # the two threads also race to build it
        codes = {root: [] for root in (tmp_path / "t0", tmp_path / "t1")}
        threads = [threading.Thread(target=run_all, args=item, daemon=True)
                   for item in codes.items()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for root, got in codes.items():
            assert got == serial
            for name, _ in jobs:
                for path in (tmp_path / "serial" / name).iterdir():
                    assert (root / name / path.name).read_bytes() == path.read_bytes()


class TestExperimentErrors:
    def test_no_good_delta_exits_3(self, tmp_path):
        cfg = tmp_path / "dead.json"
        cfg.write_text(json.dumps({
            "channel": {"type": "impaired",
                        "forward": {"drop_prob": 1.0}, "backward": {"drop_prob": 1.0}},
            "search": {"delta_min_ms": 0.5, "delta_max_ms": 1.0, "delta_step_ms": 0.5},
        }))
        assert run(["qoc", "--config", cfg, "--gspec", 0.9,
                    "--out", tmp_path / "o"]) == EXIT_EXPERIMENT

    def test_non_monotone_curve_exits_3(self, tmp_path, capsys):
        # with search seed 0 the 0.9 target earns a higher QoC than the 0.7 one
        assert run(["curve", "--config", "testbed-overhead-like",
                    "--gspec-list", "0.5,0.7,0.9,0.95", "--seed", 0,
                    "--out", tmp_path / "o"]) == EXIT_EXPERIMENT
        assert "NonMonotoneCurve" in capsys.readouterr().err


    def test_experiment_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(cfg, channel):
            raise ValueError("a defect, not a config error")

        monkeypatch.setattr(cli, "run_step_experiment", broken)
        with pytest.raises(ValueError, match="a defect"):
            run(["step", "--config", "ideal", "--out", tmp_path / "o"])

    def test_a_drain_time_out_of_range_exits_3(self, tmp_path, capsys):
        """Cross traffic up to about 1e32 ms ended in a ValueError traceback."""
        cfg = tmp_path / "flow.json"
        cfg.write_text(json.dumps({"channel": {"type": "topology", "topology": "usnet-nw",
                                   "flows": [{"src": "m0", "dst": "n0", "rate_bps": 1e6}]}}))
        assert run(["step", "--config", cfg, "--delta-ms", 1e30,
                    "--out", tmp_path / "o"]) == EXIT_EXPERIMENT
        assert "cannot emit cross traffic up to the drain time" in capsys.readouterr().err


class TestSearchCommands:
    def test_delta_opt(self, tmp_path):
        out = tmp_path / "o"
        assert run(["delta-opt", "--config", "ideal", "--out", out]) == EXIT_OK
        text = (out / "delta_opt.txt").read_text()
        assert abs(float(text.split(":")[1]) - 1.0) < 1e-9

    def test_qoc_summary_and_csv(self, tmp_path):
        out = tmp_path / "o"
        assert run(["qoc", "--config", "ideal", "--gspec", 1.0, "--out", out]) == EXIT_OK
        csv_text = (out / "qoc.csv").read_text().splitlines()
        assert csv_text[0] == "g_spec,delta_opt_ms,t_r_ms,qoc,v_max"
        g_spec, delta, t_r, qoc, vmax = csv_text[1].split(",")
        assert float(qoc) == pytest.approx(0.0, abs=0.06)

    def test_curve_command(self, tmp_path):
        out = tmp_path / "o"
        assert run(["curve", "--config", "testbed-overhead-like",
                    "--gspec-list", "0.5,0.9", "--out", out]) == EXIT_OK
        rows = (out / "perf_curve.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        qocs = [float(r.split(",")[3]) for r in rows[1:]]
        assert qocs[1] <= qocs[0] + 1e-9

    def test_vmax_from_t_r(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["vmax", "--t-r-ms", 3.364, "--out", out]) == EXIT_OK
        text = (out / "vmax.txt").read_text()
        assert "v_max_mps: 0.44" in text

    def test_vmax_needs_input(self, tmp_path):
        assert run(["vmax", "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["--t-r-ms", "inf"], ["--t-r-ms", "nan"], ["--t-r-ms", "0"], ["--t-r-ms=-1.5"],
        ["--t-r-ms", "1e-320"], ["--qoc", "nan"], ["--qoc", "inf"], ["--qoc=-inf"],
    ], ids=["t_r inf", "t_r nan", "t_r zero", "t_r negative", "t_r subnormal", "qoc nan",
            "qoc inf", "qoc -inf"])
    def test_vmax_needs_a_finite_qoc_and_a_positive_finite_rise_time(self, argv, tmp_path,
                                                                      capsys):
        """An infinite rise time used to end in a traceback, a NaN one or a NaN
        QoC printed v_max 1.0, a zero rise time was an experiment error, and a
        subnormal one printed an infinite QoC."""
        assert run(["vmax", *argv, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert argv[0].split("=")[0] in capsys.readouterr().err

    def test_vmax_of_a_huge_qoc_is_clamped(self, tmp_path, capsys):
        # 10 ** 400 overflows a float: the exponent is clamped first
        assert run(["vmax", "--qoc", 400, "--out", tmp_path / "o"]) == EXIT_OK
        assert "v_max_mps: 1.0" in capsys.readouterr().out


class TestSickness:
    def test_synth_predict_roundtrip(self, tmp_path):
        out = tmp_path / "s"
        assert run(["sickness", "synth", "--fs", 30, "--steps", 2000, "--vmax", 0.02,
                    "--fraction", 0.82, "--seed", 3, "--out", out]) == EXIT_OK
        assert run(["sickness", "predict", "--traj", out / "trajectory.csv",
                    "--vmax", 0.02, "--out", out]) == EXIT_OK
        text = (out / "sickness.txt").read_text()
        assert "predicted_E_pct: 82.0" in text

    def test_measure_on_ideal(self, tmp_path):
        out = tmp_path / "s"
        run(["sickness", "synth", "--fs", 30, "--steps", 600, "--vmax", 0.05,
             "--fraction", 0.9, "--seed", 4, "--out", out])
        assert run(["sickness", "measure", "--traj", out / "trajectory.csv",
                    "--config", "ideal", "--vmax", 0.05, "--out", out]) == EXIT_OK
        assert (out / "error_histogram.csv").exists()
        summary = (out / "sickness.txt").read_text()
        assert "measured_E_pct" in summary

    def test_measure_seed_reaches_the_manifest(self, tmp_path):
        """--seed S used to build the channel from S while the manifest kept
        the config's own seed, so two runs that measured different E wrote
        the same manifest."""
        traj = tmp_path / "t" / "trajectory.csv"
        run(["sickness", "synth", "--fs", 30, "--steps", 300, "--vmax", 0.05,
             "--fraction", 0.9, "--out", traj.parent])
        for seed in (1, 9):
            out = tmp_path / str(seed)
            assert run(["sickness", "measure", "--traj", traj, "--config", "testbed-overhead-like",
                        "--vmax", 0.05, "--seed", seed, "--out", out]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["loop"]["seed"] == seed

    def test_missing_or_unreadable_trajectory_exits_2(self, tmp_path, capsys):
        for mode in ("predict", "measure"):
            assert run(["sickness", mode, "--vmax", 0.02, "--out", tmp_path / "o"]) == EXIT_CONFIG
            assert run(["sickness", mode, "--traj", tmp_path / "absent.csv", "--vmax", 0.02,
                        "--out", tmp_path / "o"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "needs --traj" in err and "absent.csv" in err

    def test_equal_first_time_stamps_exit_2(self, tmp_path, capsys):
        """Two equal first time stamps give no sampling rate; they used to
        end in a ZeroDivisionError traceback."""
        traj = tmp_path / "traj.csv"
        traj.write_text("t_s,pos_mm\n0.0,1.0\n0.0,2.0\n0.1,3.0\n")
        for mode in ("predict", "measure"):
            assert run(["sickness", mode, "--traj", traj, "--vmax", 0.02, "--config", "ideal",
                        "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "not derivable" in capsys.readouterr().err

    # -5 used to take the file's rate in predict and measure, as --fs 0 does;
    # at 1e-320 Hz the sampling period is inf, and measure used to run on it
    @pytest.mark.parametrize("fs", ["nan", "inf", "-inf", "-5", "1e-320"])
    def test_non_finite_sampling_rate_exits_2(self, tmp_path, fs):
        traj = tmp_path / "t" / "trajectory.csv"
        assert run(["sickness", "synth", "--fs", 30, "--steps", 300, "--vmax", 0.02,
                    "--fraction", 0.5, "--out", traj.parent]) == EXIT_OK
        # --fs=-inf: a separate "-inf" would parse as an option
        assert run(["sickness", "synth", f"--fs={fs}", "--steps", 300, "--vmax", 0.02,
                    "--fraction", 0.5, "--out", tmp_path / "o"]) == EXIT_CONFIG
        for mode in ("predict", "measure"):
            assert run(["sickness", mode, "--traj", traj, f"--fs={fs}", "--vmax", 0.02,
                        "--config", "ideal", "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("vmax", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_ceiling_exits_2(self, tmp_path, capsys, vmax):
        """A NaN or negative --vmax used to predict 0.0 and measure None."""
        traj = tmp_path / "t" / "trajectory.csv"
        assert run(["sickness", "synth", "--fs", 30, "--steps", 300, "--vmax", 0.02,
                    "--fraction", 0.5, "--out", traj.parent]) == EXIT_OK
        for mode in ("predict", "measure"):
            assert run(["sickness", mode, "--traj", traj, f"--vmax={vmax}", "--config", "ideal",
                        "--out", tmp_path / "o"]) == EXIT_CONFIG
            assert "--vmax" in capsys.readouterr().err

    def test_synth_without_sampling_rate_exits_2(self, tmp_path):
        assert run(["sickness", "synth", "--out", tmp_path / "o"]) == EXIT_CONFIG

    def test_synth_without_steps_exits_2(self, tmp_path):
        assert run(["sickness", "synth", "--fs", 30, "--steps", 0,
                    "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("steps", [0, cli.MAX_SYNTH_STEPS + 1, 30_000_000, 10**9])
    def test_synth_steps_out_of_range_exit_2(self, tmp_path, steps):
        """10**9 steps ended in a MemoryError traceback from random.uniform
        (exit 1) under an address-space limit, and 3 * 10**7 in an
        _ArrayMemoryError; --steps is refused, naming its range, before any
        step is drawn."""
        done = run_limited(["sickness", "synth", "--fs", 20, "--vmax", 0.02,
                            "--steps", steps], tmp_path)
        assert done.returncode == EXIT_CONFIG, done.stderr[-2000:]
        assert "--steps" in done.stderr and str(cli.MAX_SYNTH_STEPS) in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_synth_without_ceiling_exits_2(self, tmp_path, capsys):
        """--vmax defaults to 0, which used to write a trajectory that never
        moves, predicted at 100% under any ceiling."""
        assert run(["sickness", "synth", "--fs", 30, "--steps", 300, "--fraction", 0.5,
                    "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "speed ceiling" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_predict_without_ceiling_exits_2(self, tmp_path, capsys):
        """--vmax defaults to 0, under which predict used to find no speed:
        predicted_E_pct 0.0, exit 0. measure still takes 0 as no prediction."""
        traj = tmp_path / "t" / "trajectory.csv"
        assert run(["sickness", "synth", "--fs", 30, "--steps", 300, "--vmax", 0.02,
                    "--fraction", 0.5, "--out", traj.parent]) == EXIT_OK
        capsys.readouterr()
        assert run(["sickness", "predict", "--traj", traj,
                    "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "--vmax" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sickness.txt").exists()
        assert run(["sickness", "measure", "--traj", traj, "--config", "ideal",
                    "--out", tmp_path / "m"]) == EXIT_OK
        assert "predicted_E_pct: None" in capsys.readouterr().out

    def test_one_sample_trajectory_exits_2(self, tmp_path, capsys):
        """A file of one sample used to exit 3, an experiment error."""
        traj = tmp_path / "short.csv"
        traj.write_text("# fs_hz: 10.0\n1.0\n")
        for mode in ("predict", "measure"):
            assert run(["sickness", mode, "--traj", traj, "--vmax", 0.02, "--config", "ideal",
                        "--out", tmp_path / "o"]) == EXIT_CONFIG
            assert "at least 2 samples" in capsys.readouterr().err


class TestNetsim:
    def test_placement_sweep_no_traffic(self, tmp_path):
        out = tmp_path / "n"
        code = run(["netsim", "--config", "usnet-nw", "--gspec", 0.9,
                    "--rates", "0", "--placements", "S0:S8,S6:S8",
                    "--out", out])
        assert code == EXIT_OK
        rows = (out / "netsim.csv").read_text().strip().splitlines()
        assert rows[0].startswith("te_master,te_slave,rate_bps")
        assert len(rows) == 3

    def test_queue_cap_reaches_the_channel(self, tmp_path, monkeypatch):
        caps = []
        build = cli.channel_from_topology

        def recording(topology, flows, seed, queue_cap=None):
            caps.append(queue_cap)
            return build(topology, flows, seed, queue_cap)

        monkeypatch.setattr(cli, "channel_from_topology", recording)
        cfg = tmp_path / "capped.json"
        cfg.write_text(json.dumps({
            "channel": {"type": "topology", "topology": "usnet-nw", "te": ["S0", "S8"],
                        "queue_cap": 2},
            "loop": {"delta_ms": 4.5},
            "search": {"deltas": [4.5], "m_batch": 10, "m_max": 10},
        }))
        assert run(["netsim", "--config", cfg, "--rates", "0,500000", "--pairs", 1,
                    "--out", tmp_path / "n"]) == EXIT_OK
        assert caps and set(caps) == {2}

    def test_zero_byte_flow_packets_exit_2_before_any_trial(self, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(cli, "find_delta_opt_bar", no_search)
        assert run(["netsim", "--config", "usnet-nw", "--rates", "0,500000",
                    "--flow-pkt-bytes", 0, "--out", tmp_path / "n"]) == EXIT_CONFIG


    @pytest.mark.parametrize("pairs, text", [(40, "m16"), (0, "host pair"), (-3, "host pair")],
                             ids=["unknown hosts", "zero", "negative"])
    def test_bad_pair_count_exits_2_before_any_search(self, tmp_path, monkeypatch, capsys,
                                                      pairs, text):
        """usnet-nw has hosts m0..m15 and n0..n15: 40 pairs used to fail as an
        experiment error mid-sweep, and -3 pairs ran an unloaded search
        labelled with the rate."""
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(cli, "find_delta_opt_bar", no_search)
        assert run(["netsim", "--config", "usnet-nw", "--rates", "0,500000",
                    f"--pairs={pairs}", "--out", tmp_path / "n"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--pairs" in err and text in err

    @pytest.mark.parametrize("rates, code", [("0,500000", EXIT_CONFIG), ("0", EXIT_OK)],
                             ids=["loaded", "unloaded"])
    def test_a_huge_pair_count_builds_no_flows_first(self, tmp_path, rates, code):
        """10**8 pairs built 2 * 10**8 flows for each rate, rate 0 included,
        before any host was checked: a MemoryError traceback (exit 1) under
        the address-space limit. Now the hosts are checked first, up to the
        first unknown one, and rate 0 builds no flows."""
        done = run_limited(["netsim", "--config", "usnet-nw", "--pairs", 10**8,
                            "--rates", rates], tmp_path)
        assert done.returncode == code, done.stderr[-2000:]
        assert "Traceback" not in done.stderr
        assert code == EXIT_OK or "m16" in done.stderr

    @pytest.mark.parametrize("use", ["rate flag", "flow entry", "packet flag"])
    def test_a_flow_with_no_finite_period_exits_2_before_any_run(self, tmp_path, monkeypatch,
                                                                 capsys, use):
        """A 64 B packet at 1e-320 bps has a period of inf ms: the search or
        step started, then exited 3 when the flows emitted. A packet size
        past the largest float has no float period either."""
        def no_run(*args, **kwargs):
            raise AssertionError("a search or step ran")

        monkeypatch.setattr(cli, "find_delta_opt_bar", no_run)
        monkeypatch.setattr(cli, "run_step_experiment", no_run)
        out = ["--out", tmp_path / "n"]
        if use == "flow entry":
            cfg = tmp_path / "slow.json"
            cfg.write_text(json.dumps({"channel": {
                "type": "topology", "topology": "usnet-nw",
                "flows": [{"src": "S0", "dst": "S8", "rate_bps": 1e-320, "pkt_bytes": 64}]}}))
            assert run(["step", "--config", cfg, *out]) == EXIT_CONFIG
        else:
            flags = (["--rates", "0,1e-320"] if use == "rate flag"
                     else ["--rates", "500000", "--flow-pkt-bytes", 10**400])
            argv = ["netsim", "--config", "usnet-nw", "--pairs", 2, *flags, *out]
            assert run(argv) == EXIT_CONFIG
        assert "no finite period" in capsys.readouterr().err

    @pytest.mark.parametrize("use", ["long drain", "fast flows"])
    def test_cross_traffic_too_large_to_allocate_exits_3(self, tmp_path, use):
        """A 1e6 ms loop time drains for 1e8 ms, and 1e12 bps flows emit
        about 2e9 packets a second: either one ended in an _ArrayMemoryError
        traceback (exit 1) under the address-space limit. No fixed bound on
        the emitted packets would hold for every input, so the run fails as
        an experiment error naming the drain time."""
        if use == "long drain":
            cfg = tmp_path / "long.json"
            cfg.write_text(json.dumps({
                "channel": {"type": "topology", "topology": "usnet-nw",
                            "flows": [{"src": "S0", "dst": "S8", "rate_bps": 500000,
                                       "pkt_bytes": 64}]},
                "loop": {"delta_ms": 1e6}}))
            args = ["step", "--config", cfg]
        else:
            args = ["netsim", "--config", "usnet-nw", "--pairs", 1, "--rates", "1e12"]
        done = run_limited(args, tmp_path)
        assert done.returncode == EXIT_EXPERIMENT, done.stderr[-2000:]
        assert "drain time" in done.stderr and "Traceback" not in done.stderr

    def test_a_sweep_shares_phase_draws_and_writes_its_single_searches(self, tmp_path,
                                                                       monkeypatch):
        """A 2 x 2 sweep writes the rows its four single searches write, and
        seeds each flow phase's generator once per (trial seed, flow) key,
        where each search used to seed its own."""
        keys = []

        class Recorded(_random.Random):
            def seed(self, key):
                keys.append(key)
                super().seed(key)

        monkeypatch.setattr(netsim, "_random", SimpleNamespace(Random=Recorded))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "channel": {"type": "topology", "topology": "usnet-nw", "te": ["S0", "S8"]},
            "search": {"deltas": [4.5, 6.0], "m_batch": 10, "m_max": 20}}))
        flags = ["--config", cfg, "--pairs", 2]

        def rows(placements, rates, out):
            assert run(["netsim", *flags, "--placements", placements, "--rates", rates,
                        "--out", tmp_path / out]) == EXIT_OK
            return (tmp_path / out / "netsim.csv").read_text().splitlines()

        # both tactile routes cross both pairs' flows, so each search draws them all
        sweep = rows("S0:S8,S8:S0", "250000,500000", "sweep")
        drawn = len(keys)
        assert drawn and len(set(keys)) == drawn
        singles = [rows(p, r, f"{p}-{r}")[1] for p in ("S0:S8", "S8:S0")
                   for r in ("250000", "500000")]
        assert sweep[1:] == singles
        assert len(keys) == 5 * drawn  # each single search draws every key itself

    def test_unknown_placement_switch_exits_2_before_any_search(self, tmp_path, monkeypatch,
                                                                 capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(cli, "find_delta_opt_bar", no_search)
        assert run(["netsim", "--config", "usnet-nw", "--placements", "S0:S8,S0:S99",
                    "--out", tmp_path / "n"]) == EXIT_CONFIG
        assert "S99" in capsys.readouterr().err


class TestProbe:
    def test_echo_roundtrip_on_loopback(self, tmp_path):
        port = free_port()
        serve = threading.Thread(
            target=run, args=(["probe", "serve", "--bind", f"127.0.0.1:{port}",
                               "--count", 5, "--deadline-ms", 3000,
                               "--out", tmp_path / "srv"],),
            daemon=True)
        serve.start()
        wait_until_bound(port)
        code = run(["probe", "measure", "--local", "127.0.0.1:0",
                    "--remote", f"127.0.0.1:{port}", "--count", 5,
                    "--interval-ms", 1, "--deadline-ms", 2000,
                    "--out", tmp_path / "cli"])
        serve.join(timeout=10.0)
        assert code == EXIT_OK
        text = (tmp_path / "cli" / "probe.txt").read_text()
        assert "rtt_mean_ms:" in text and "lost: 0" in text
        assert "budget_haptic: within" in text

    def test_socket_step_against_plant_responder(self, tmp_path):
        port = free_port()
        plant_cfg = tmp_path / "plant.json"
        plant_cfg.write_text(json.dumps({
            "loop": {"delta_ms": 5.0, "sweep_len": 30, "step_at": 15},
            "channel": {"type": "ideal"},
        }))
        sock_cfg = tmp_path / "sock.json"
        sock_cfg.write_text(json.dumps({
            "loop": {"delta_ms": 5.0, "sweep_len": 30, "step_at": 15},
            "channel": {"type": "socket", "local": "127.0.0.1:0",
                        "remote": f"127.0.0.1:{port}"},
        }))
        results = {}

        def serve():
            results["code"] = run(["probe", "serve", "--bind", f"127.0.0.1:{port}",
                                   "--plant-config", plant_cfg,
                                   "--deadline-ms", 3000, "--out", tmp_path / "srv"])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        wait_until_bound(port)
        code = run(["step", "--config", sock_cfg, "--deadline-ms", 3000,
                    "--out", tmp_path / "op"])
        thread.join(timeout=15.0)
        assert code == EXIT_OK
        assert results.get("code") == EXIT_OK
        trace = (tmp_path / "op" / "operator_trace.csv").read_text().splitlines()
        assert trace[0] == "t_ms,x,y"
        assert len(trace) == 31
        curve = read_curve_csv(str(tmp_path / "srv" / "curve.csv"),
                               LoopConfig(delta_ms=5.0, sweep_len=30, step_at=15))
        assert len(curve.t) >= 28
