"""Experiment configuration: JSON schema, bundled presets, runner assembly.

One config file describes one experiment: the loop constants, exactly one
channel variant (ideal | impaired | topology | socket), the search grid and
an output directory. Builders turn the parsed tree into LoopConfig /
SearchConfig values and a per-trial channel factory, which is everything the
searches need.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Callable

from .core import GoodnessLimits, TcpsbenchError
from .loopsim import LoopConfig
from .netsim import Link, Topology, TrafficFlow, channel_from_topology
from .qoc import SearchConfig, StepRunner
from .transport import ChannelModel, Jitter, LinkParams, ideal_model

PRESET_NAMES = ("ideal", "testbed-overhead-like", "usnet-nw", "vrep-like")


class ConfigError(TcpsbenchError):
    """Malformed or inconsistent experiment configuration."""


def load_config(source: str) -> dict:
    """Load a config by bundled preset name or filesystem path."""
    if source in PRESET_NAMES:
        text = resources.files("tcpsbench.configs").joinpath(f"{source}.json").read_text("utf-8")
        origin = f"preset:{source}"
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from None
        origin = source
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{origin}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    return cfg


def _take(d: dict, field: str, expected: type, default: Any = None, required: bool = False) -> Any:
    if field not in d:
        if required:
            raise ConfigError(f"missing required field {field!r}")
        return default
    v = d[field]
    if expected is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, expected):
        raise ConfigError(f"field {field!r} must be {expected.__name__}, got {type(v).__name__}")
    return v


_LOOP_FIELDS = {"setting", "k_p", "k_1", "k_2", "p_ref", "delta_ms", "sweep_len",
                "step_at", "packet_size_b", "robot_tau_ms", "seed"}


def build_loop_config(d: dict) -> LoopConfig:
    unknown = set(d) - _LOOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown loop fields: {sorted(unknown)}")
    try:
        return LoopConfig(
            k_p=_take(d, "k_p", float, 1.0),
            k_1=_take(d, "k_1", float, 1.0),
            k_2=_take(d, "k_2", float, 1.25),
            p_ref=_take(d, "p_ref", float, 100.0),
            delta_ms=_take(d, "delta_ms", float, 1.0),
            sweep_len=_take(d, "sweep_len", int, 100),
            step_at=_take(d, "step_at", int),
            packet_size_b=_take(d, "packet_size_b", int, 32),
            setting=_take(d, "setting", str, "haptic"),
            robot_tau_ms=_take(d, "robot_tau_ms", float, 0.0),
            seed=_take(d, "seed", int, 0),
        )
    except (ValueError, TcpsbenchError) as exc:
        raise ConfigError(f"invalid loop config: {exc}") from None


def build_search_config(d: dict | None) -> SearchConfig:
    if d is None:
        return SearchConfig()
    deltas = d.get("deltas")
    try:
        return SearchConfig(
            delta_min_ms=_take(d, "delta_min_ms", float, 0.1),
            delta_max_ms=_take(d, "delta_max_ms", float, 5.0),
            delta_step_ms=_take(d, "delta_step_ms", float, 0.1),
            deltas=tuple(float(x) for x in deltas) if deltas is not None else None,
            ci_halfwidth=_take(d, "ci_halfwidth", float, 0.05),
            m_max=_take(d, "m_max", int, 2000),
            m_batch=_take(d, "m_batch", int, 20),
            seed=_take(d, "seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid search config: {exc}") from None


def _build_jitter(d: dict | None) -> Jitter:
    if d is None:
        return Jitter.none()
    kind = _take(d, "kind", str, "none")
    if kind == "none":
        return Jitter.none()
    if kind == "uniform":
        return Jitter.uniform(_take(d, "a", float, required=True))
    if kind == "truncnorm":
        return Jitter.truncnorm(_take(d, "mu", float, required=True),
                                _take(d, "sigma", float, required=True))
    raise ConfigError(f"unknown jitter kind {kind!r}")


def _build_link_params(d: dict | None) -> LinkParams:
    if d is None:
        return LinkParams()
    try:
        return LinkParams(
            latency_ms=_take(d, "latency_ms", float, 0.5),
            jitter=_build_jitter(d.get("jitter")),
            drop_prob=_take(d, "drop_prob", float, 0.0),
            bandwidth_bps=_take(d, "bandwidth_bps", float, 0.0),
            fifo=_take(d, "fifo", bool, True),
            drop_seq=frozenset(d.get("drop_seq", ())),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid link parameters: {exc}") from None


def build_topology(d: dict) -> Topology:
    try:
        links = tuple(Link(a=str(a), b=str(b), delay_ms=float(delay), bandwidth_bps=float(bw))
                      for a, b, delay, bw in d["links"])
        return Topology(
            switches=tuple(str(s) for s in d["switches"]),
            links=links,
            hosts={str(h): str(s) for h, s in d["hosts"].items()},
            te_master=str(d["te_master"]),
            te_slave=str(d["te_slave"]),
        )
    except (KeyError, TypeError, ValueError, TcpsbenchError) as exc:
        raise ConfigError(f"invalid topology: {exc}") from None


def build_flows(entries: list | None) -> tuple[TrafficFlow, ...]:
    if not entries:
        return ()
    flows = []
    for e in entries:
        try:
            flows.append(TrafficFlow(
                src=str(e["src"]), dst=str(e["dst"]),
                rate_bps=float(e["rate_bps"]),
                pkt_bytes=int(e.get("pkt_bytes", 1250)),
            ))
        except (KeyError, TypeError, ValueError, TcpsbenchError) as exc:
            raise ConfigError(f"invalid flow entry {e!r}: {exc}") from None
    return tuple(flows)


@dataclass
class ChannelSpec:
    """Resolved channel variant plus a factory building a fresh, seeded
    channel per trial."""

    kind: str
    factory: Callable[[int], object]
    description: dict
    topology: Topology | None = None
    queue_cap: int | None = None


def build_channel_spec(d: dict) -> ChannelSpec:
    kind = _take(d, "type", str, required=True)
    if kind == "ideal":
        latency = _take(d, "latency_each_way_ms", float, 0.5)
        model = ideal_model(latency)
        return ChannelSpec(kind=kind, factory=model.build, description=dict(d))
    if kind == "impaired":
        model = ChannelModel(forward=_build_link_params(d.get("forward")),
                             backward=_build_link_params(d.get("backward")))
        return ChannelSpec(kind=kind, factory=model.build, description=dict(d))
    if kind == "topology":
        topo_field = d.get("topology")
        if isinstance(topo_field, str):
            topo_cfg = load_config(topo_field)
            topo_dict = topo_cfg["channel"]["topology"] if "channel" in topo_cfg else topo_cfg
        elif isinstance(topo_field, dict):
            topo_dict = topo_field
        else:
            raise ConfigError("topology channel needs a 'topology' object or preset name")
        topo = build_topology(topo_dict)
        te = d.get("te")
        if te:
            topo = replace(topo, te_master=str(te[0]), te_slave=str(te[1]))
        flows = build_flows(d.get("flows"))
        queue_cap = None if d.get("queue_cap") is None else _take(d, "queue_cap", int)
        factory = lambda seed: channel_from_topology(topo, flows, seed, queue_cap)
        return ChannelSpec(kind=kind, factory=factory, description=dict(d),
                           topology=topo, queue_cap=queue_cap)
    if kind == "socket":
        local = _take(d, "local", str, "127.0.0.1:0")
        remote = _take(d, "remote", str, required=True)

        def no_sim(seed: int) -> object:
            raise ConfigError("socket channels run in real time; simulated searches "
                              "need an ideal/impaired/topology channel")

        return ChannelSpec(kind=kind, factory=no_sim,
                           description={"type": "socket", "local": local, "remote": remote})
    raise ConfigError(f"unknown channel type {kind!r}")


@dataclass
class Experiment:
    """Fully resolved experiment: loop, channel, search, limits."""

    loop: LoopConfig
    channel: ChannelSpec
    search: SearchConfig
    limits: GoodnessLimits
    raw: dict

    def runner(self) -> StepRunner:
        return StepRunner(cfg=self.loop, channel_factory=self.channel.factory,
                          limits=self.limits)


_TOP_FIELDS = {"loop", "channel", "search", "limits", "outputs"}


def build_experiment(cfg: dict) -> Experiment:
    unknown = set(cfg) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown top-level fields: {sorted(unknown)}")
    if "channel" not in cfg:
        raise ConfigError("missing required field 'channel'")
    limits_d = cfg.get("limits") or {}
    try:
        limits = GoodnessLimits(
            overshoot_max_pct=_take(limits_d, "overshoot_max_pct", float, 20.0),
            sse_max_pct=_take(limits_d, "sse_max_pct", float, 10.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid limits: {exc}") from None
    return Experiment(
        loop=build_loop_config(cfg.get("loop") or {}),
        channel=build_channel_spec(cfg["channel"]),
        search=build_search_config(cfg.get("search")),
        limits=limits,
        raw=cfg,
    )


def load_experiment(source: str, overrides: dict | None = None) -> Experiment:
    cfg = load_config(source)
    if overrides:
        cfg = _merge(cfg, overrides)
    return build_experiment(cfg)


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out
