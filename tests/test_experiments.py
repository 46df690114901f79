"""Experiment configs: the dataclasses are the schema."""

import json
import re
from pathlib import Path

import pytest

from tcpsbench import cli
from tcpsbench.cli import EXIT_CONFIG, run_command
from tcpsbench.core import GoodnessLimits
from tcpsbench.experiments import ConfigError, _build, _build_link, build_experiment
from tcpsbench.loopsim import LoopConfig
from tcpsbench.qoc import SearchConfig
from tcpsbench.transport import LinkParams

README = Path(__file__).resolve().parent.parent / "README.md"

IDEAL = {"type": "ideal"}
TOPOLOGY = {"type": "topology", "topology": "usnet-nw"}


def _impaired(forward=None, backward=None):
    return {"type": "impaired", "forward": forward or {}, "backward": backward or {}}


# (object, config, misspelt key): one unknown key in each config object
UNKNOWN_KEYS = [
    ("top level", {"channel": IDEAL, "outputs": "out"}, "outputs"),
    ("loop", {"channel": IDEAL, "loop": {"k_pp": 1.0}}, "k_pp"),
    ("search", {"channel": IDEAL, "search": {"m_mx": 10}}, "m_mx"),
    ("limits", {"channel": IDEAL, "limits": {"sse_max": 5.0}}, "sse_max"),
    ("forward link", {"channel": _impaired(forward={"drop_prb": 0.5})}, "drop_prb"),
    ("backward link", {"channel": _impaired(backward={"latncy_ms": 1.0})}, "latncy_ms"),
    ("jitter", {"channel": _impaired(forward={"jitter": {"kind": "truncnorm", "mu": 0.1,
                                                         "sgma": 0.3}})}, "sgma"),
    ("ideal channel", {"channel": {**IDEAL, "latency_ms": 2.0}}, "latency_ms"),
    ("impaired channel", {"channel": {**_impaired(), "fwd": {}}}, "fwd"),
    ("topology channel", {"channel": {**TOPOLOGY, "queue": 4}}, "queue"),
    ("socket channel", {"channel": {"type": "socket", "remote": "127.0.0.1:9",
                                    "bind": "127.0.0.1:0"}}, "bind"),
    ("flow entry", {"channel": {**TOPOLOGY, "flows": [{"src": "m0", "dst": "n0",
                                                       "rate_bps": 1e5, "pkt_byte": 64}]}},
     "pkt_byte"),
]


@pytest.mark.parametrize("cfg, key", [case[1:] for case in UNKNOWN_KEYS],
                         ids=[case[0] for case in UNKNOWN_KEYS])
def test_unknown_key_in_any_object_exits_2(tmp_path, capsys, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_command(["step", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def _line(delay=0.0, bandwidth=1e7, rate=1e6):
    """A two-switch topology with one flow across its link."""
    return {"channel": {"type": "topology", "flows": [{"src": "a", "dst": "b", "rate_bps": rate}],
                        "topology": {"switches": ["S0", "S1"],
                                     "links": [["S0", "S1", delay, bandwidth]],
                                     "hosts": {"a": "S0", "b": "S1"},
                                     "te_master": "S0", "te_slave": "S1"}}}


NAN, INF = float("nan"), float("inf")

# (case, config, text the error names): values a config object rejects when
# it is built, before any experiment runs
BAD_VALUES = [
    ("negative jitter a", {"channel": _impaired(forward={"jitter": {"kind": "uniform",
                                                                    "a": -5.0}})}, "jitter"),
    ("negative jitter sigma", {"channel": _impaired(backward={"jitter": {
        "kind": "truncnorm", "mu": 1.0, "sigma": -0.5}})}, "jitter"),
    ("negative bandwidth", {"channel": _impaired(forward={"bandwidth_bps": -8000})},
     "bandwidth_bps"),
    ("zero-byte flow", {"channel": {**TOPOLOGY, "flows": [{"src": "m0", "dst": "n0",
                                                           "rate_bps": 1e6, "pkt_bytes": 0}]}},
     "1 byte"),
    # a flow between unknown nodes used to fail as an experiment error when a trial ran
    ("unknown flow source", {"channel": {**TOPOLOGY, "flows": [{"src": "m99", "dst": "n0",
                                                                "rate_bps": 1e5}]}}, "m99"),
    ("unknown flow destination", {"channel": {**TOPOLOGY, "flows": [{"src": "m0", "dst": "x",
                                                                     "rate_bps": 1e5}]}}, "'x'"),
    ("zero queue cap", {"channel": {**TOPOLOGY, "queue_cap": 0}}, "queue_cap"),
    ("negative packet size", {"channel": IDEAL, "loop": {"packet_size_b": -64}},
     "packet_size_b"),
    # JSON spells NaN and Infinity too; a channel number must be finite
    ("NaN link delay", _line(delay=NAN), "bad link parameters"),
    ("infinite link delay", _line(delay=INF), "bad link parameters"),
    ("minus infinite link delay", _line(delay=-INF), "bad link parameters"),
    ("NaN link bandwidth", _line(bandwidth=NAN), "bad link parameters"),
    ("infinite link bandwidth", _line(bandwidth=INF), "bad link parameters"),
    ("minus infinite link bandwidth", _line(bandwidth=-INF), "bad link parameters"),
    ("NaN flow rate", _line(rate=NAN), "flow rate"),
    ("infinite flow rate", _line(rate=INF), "flow rate"),
    ("NaN latency", {"channel": _impaired(forward={"latency_ms": NAN})}, "latency"),
    ("NaN impaired bandwidth", {"channel": _impaired(backward={"bandwidth_bps": NAN})},
     "bandwidth_bps"),
    ("NaN jitter a", {"channel": _impaired(forward={"jitter": {"kind": "uniform", "a": NAN}})},
     "jitter"),
    ("NaN jitter sigma", {"channel": _impaired(backward={"jitter": {
        "kind": "truncnorm", "mu": 1.0, "sigma": NAN}})}, "jitter"),
    ("NaN jitter mu", {"channel": _impaired(forward={"jitter": {
        "kind": "truncnorm", "mu": NAN, "sigma": 0.3}})}, "jitter"),
    ("minus infinite jitter mu", {"channel": _impaired(forward={"jitter": {
        "kind": "truncnorm", "mu": -INF, "sigma": 0.3}})}, "jitter"),
    ("infinite jitter a", {"channel": _impaired(backward={"jitter": {"kind": "uniform",
                                                                     "a": INF}})}, "jitter"),
    ("infinite latency", {"channel": _impaired(forward={"latency_ms": INF})}, "latency"),
    ("infinite impaired bandwidth", {"channel": _impaired(backward={"bandwidth_bps": INF})},
     "bandwidth_bps"),
    # a float send index used to crash the run, a negative one never matched
    ("float drop_seq entry", {"channel": _impaired(forward={"drop_seq": [2.5]})}, "drop_seq"),
    ("negative drop_seq entry", {"channel": _impaired(forward={"drop_seq": [-3]})}, "drop_seq"),
    ("boolean drop_seq entry", {"channel": _impaired(backward={"drop_seq": [True]})},
     "drop_seq"),
    # every float of the loop: a NaN delta_ms or p_ref used to run
    *((f"{value} {name}", {"channel": IDEAL, "loop": {name: value}}, name)
      for name in ("k_p", "k_1", "k_2", "p_ref", "delta_ms", "robot_tau_ms")
      for value in (NAN, INF, -INF)),
    # the bands need p_ref > 0: 0 ran to NoStepDetected, -100 to "good" curves
    ("0 p_ref", {"channel": IDEAL, "loop": {"p_ref": 0}}, "p_ref"),
    ("-100 p_ref", {"channel": IDEAL, "loop": {"p_ref": -100}}, "p_ref"),
    # a non-finite grid bound or step used to make the grid endless
    *((f"{value} {name}", {"channel": IDEAL, "search": {name: value}}, name)
      for name in ("delta_min_ms", "delta_max_ms", "delta_step_ms")
      for value in (NAN, INF, -INF)),
    ("NaN explicit delta", {"channel": IDEAL, "search": {"deltas": [1.0, NAN]}}, "deltas"),
    ("infinite explicit delta", {"channel": IDEAL, "search": {"deltas": [INF]}}, "deltas"),
    # an empty grid used to write a header-only curve (exit 0) or fail as NoGoodDelta (exit 3)
    ("empty explicit grid", {"channel": IDEAL, "search": {"deltas": []}}, "deltas"),
]


@pytest.mark.parametrize("cfg, text", [case[1:] for case in BAD_VALUES],
                         ids=[case[0] for case in BAD_VALUES])
def test_bad_value_exits_2(tmp_path, capsys, monkeypatch, cfg, text):
    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment ran")

    # a zero-byte flow never ends, so the config must fail before any run
    monkeypatch.setattr(cli, "run_step_experiment", no_experiment)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_command(["step", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and text in err


def test_jitter_rejects_parameters_its_kind_does_not_draw_with():
    with pytest.raises(ConfigError, match="'mu'"):
        _build_link({"jitter": {"kind": "uniform", "a": 1.0, "mu": 0.5}}, "forward link")
    with pytest.raises(ConfigError, match="needs mu and sigma"):
        _build_link({"jitter": {"kind": "truncnorm", "mu": 0.5}}, "forward link")


def test_readme_schema_builds_with_the_dataclass_defaults():
    block = re.search(r"## Config schema.*?```jsonc\n(.*?)```", README.read_text("utf-8"), re.S)
    cfg = json.loads(re.sub(r"//[^\n]*", "", block.group(1)))
    assert cfg["loop"]["step_at"] is None
    exp = build_experiment(cfg)
    assert exp.loop == LoopConfig()
    assert exp.search == SearchConfig()
    assert exp.limits == GoodnessLimits()


def test_empty_objects_build_the_dataclass_defaults():
    assert _build(LoopConfig, {}, "loop") == LoopConfig()
    assert _build(SearchConfig, {}, "search") == SearchConfig()
    assert _build_link({}, "forward link") == LinkParams()
    assert _build(GoodnessLimits, {}, "limits") == GoodnessLimits()


def test_float_field_takes_an_int_and_int_field_rejects_a_bool():
    assert type(_build(LinkParams, {"bandwidth_bps": 0}, "link").bandwidth_bps) is float
    with pytest.raises(ConfigError, match="'seed' must be int"):
        _build(LoopConfig, {"seed": True}, "loop")


def test_setting_other_than_haptic_or_non_haptic_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"channel": IDEAL, "loop": {"setting": "Haptic"}}))
    assert run_command(["step", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "setting" in capsys.readouterr().err
    with pytest.raises(ValueError):
        LoopConfig(setting="Haptic")
