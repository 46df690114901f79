"""Experiment configuration: JSON schema, bundled presets, runner assembly.

One config file describes one experiment: the loop constants, exactly one
channel variant (ideal | impaired | topology | socket), the search grid and
the goodness limits. The dataclasses are the schema: `_build` takes each
object's keys, defaults and JSON types from the dataclass it becomes, so
every object rejects keys it does not read. The result is the LoopConfig,
SearchConfig, GoodnessLimits and per-trial channel factory the searches need.
The topology code (`netsim`) loads only for a topology config.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .core import GoodnessLimits, TcpsbenchError
from .loopsim import LoopConfig, last_tick
from .qoc import SearchConfig, StepRunner
from .transport import MIN_PACKET_BYTES, ChannelModel, Jitter, LinkParams, ideal_model

if TYPE_CHECKING:  # netsim loads only for a topology config
    from .netsim import Topology

PRESET_NAMES = ("ideal", "testbed-overhead-like", "usnet-nw", "vrep-like")
_type_hints = functools.cache(typing.get_type_hints)  # evaluating annotations is slow


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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from None
        origin = source
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{origin}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    return cfg


def _check(name: str, v: Any, hint: Any) -> Any:
    """One JSON value checked against a field annotation: a float field also
    takes an int, and an `X | None` field takes null."""
    allowed = typing.get_args(hint) or (hint,)
    if float in allowed and type(v) is int:
        return float(v)
    if isinstance(v, allowed) and (bool in allowed or not isinstance(v, bool)):
        return v
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ConfigError(f"field {name!r} must be {names}, got {type(v).__name__}")


def _object(d: Any, what: str, keys: Iterable[str]) -> dict:
    """The JSON object d (null reads as {}), checked to hold only keys."""
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    return d


def _build(cls: type, d: Any, what: str, **convert: Callable[[Any], Any]) -> Any:
    """Builds dataclass cls from the JSON object d. The keys, defaults and
    JSON types are those of the dataclass fields; convert maps a field to a
    function for the values JSON cannot spell directly."""
    d = _object(d, what, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{what}: missing required field {f.name!r}")
    hints = _type_hints(cls)
    try:
        return cls(**{k: convert[k](v) if k in convert else _check(k, v, hints[k])
                      for k, v in d.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError, TcpsbenchError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def _build_jitter(d: Any) -> Jitter:
    """A jitter block holds its kind and exactly the parameters it draws with."""
    jitter = _build(Jitter, d, "jitter")
    params = Jitter.PARAMS[jitter.kind]
    _object(d, f"{jitter.kind} jitter", ("kind", *params))
    if not set(params) <= set(d or ()):
        raise ConfigError(f"{jitter.kind} jitter needs {' and '.join(params)}")
    return jitter


def _build_link(d: Any, what: str) -> LinkParams:
    return _build(LinkParams, d, what, jitter=_build_jitter, drop_seq=frozenset)


def build_topology(d: Any) -> Topology:
    from .netsim import Link, Topology

    return _build(Topology, d, "topology",
                  switches=lambda v: tuple(str(s) for s in v),
                  links=lambda v: tuple(Link(a=str(a), b=str(b), delay_ms=float(delay),
                                             bandwidth_bps=float(bw))
                                        for a, b, delay, bw in v),
                  hosts=lambda v: {str(h): str(s) for h, s in dict(v).items()})


def parse_addr(spec: str) -> tuple[str, int]:
    """A "host:port" datagram address."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"bad address {spec!r}: expected host:port")
    return host, int(port)


@dataclass
class ChannelSpec:
    """Resolved channel variant plus a factory building a fresh, seeded
    channel per trial."""

    kind: str
    factory: Callable[[int], object]
    description: dict
    topology: Topology | None = None
    queue_cap: int | None = None


_CHANNEL_KEYS = {
    "ideal": ("latency_each_way_ms",),
    "impaired": ("forward", "backward"),
    "topology": ("topology", "te", "flows", "queue_cap"),
    "socket": ("local", "remote"),
}


def build_channel_spec(d: Any) -> ChannelSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"channel must be an object, got {type(d).__name__}")
    if "type" not in d:
        raise ConfigError("missing required field 'type'")
    kind = _check("type", d["type"], str)
    if kind not in _CHANNEL_KEYS:
        raise ConfigError(f"unknown channel type {kind!r}")
    _object(d, f"{kind} channel", ("type", *_CHANNEL_KEYS[kind]))
    if kind == "ideal":
        try:
            model = ideal_model(**{k: _check(k, v, float) for k, v in d.items() if k != "type"})
        except ValueError as exc:
            raise ConfigError(f"invalid ideal channel: {exc}") from None
        return ChannelSpec(kind=kind, factory=model.build, description=dict(d))
    if kind == "impaired":
        model = ChannelModel(forward=_build_link(d.get("forward"), "forward link"),
                             backward=_build_link(d.get("backward"), "backward link"))
        return ChannelSpec(kind=kind, factory=model.build, description=dict(d))
    if kind == "topology":
        from .netsim import TopologyError, TrafficFlow, channel_from_topology, check_flow_hosts

        topo_dict = d.get("topology")
        if isinstance(topo_dict, str):
            topo_dict = load_config(topo_dict)
            if "channel" in topo_dict:
                topo_dict = _check("channel", topo_dict["channel"], dict).get("topology")
        if not isinstance(topo_dict, dict):
            raise ConfigError("topology channel needs a 'topology' object or a topology preset")
        te = _check("te", d.get("te", []), list)
        if len(te) not in (0, 2):
            raise ConfigError(f"field 'te' must name two switches, got {te!r}")
        if te:
            topo_dict = {**topo_dict, "te_master": te[0], "te_slave": te[1]}
        topo = build_topology(topo_dict)
        flows = tuple(_build(TrafficFlow, e, "flow entry")
                      for e in _check("flows", d.get("flows", []), list))
        try:
            check_flow_hosts(topo, flows)
        except TopologyError as exc:
            raise ConfigError(f"flow entry: {exc}") from None
        queue_cap = _check("queue_cap", d.get("queue_cap"), int | None)
        if queue_cap is not None and queue_cap < 1:
            raise ConfigError(f"field 'queue_cap' must be at least 1, got {queue_cap}")
        factory = lambda seed: channel_from_topology(topo, flows, seed, queue_cap)
        return ChannelSpec(kind=kind, factory=factory, description=dict(d),
                           topology=topo, queue_cap=queue_cap)
    if "remote" not in d:
        raise ConfigError("socket channel: missing required field 'remote'")
    local = _check("local", d.get("local", "127.0.0.1:0"), str)
    remote = _check("remote", d["remote"], str)

    def no_sim(seed: int) -> object:
        raise ConfigError("socket channels run in real time; simulated searches "
                          "need an ideal/impaired/topology channel")

    return ChannelSpec(kind=kind, factory=no_sim,
                       description={"type": "socket", "local": parse_addr(local),
                                    "remote": parse_addr(remote)})


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


_TOP_FIELDS = ("loop", "channel", "search", "limits")


def build_experiment(cfg: dict) -> Experiment:
    _object(cfg, "top-level", _TOP_FIELDS)
    if "channel" not in cfg:
        raise ConfigError("missing required field 'channel'")
    loop = _build(LoopConfig, cfg.get("loop"), "loop")
    if not loop.p_ref > 0.0:  # the step-response bands assume a positive set point
        raise ConfigError(f"invalid loop: p_ref must be positive, got {loop.p_ref}")
    channel = build_channel_spec(cfg["channel"])
    if channel.kind == "socket" and loop.packet_size_b < MIN_PACKET_BYTES:  # the codec's floor
        raise ConfigError(f"invalid loop: a socket channel needs packet_size_b of at least "
                          f"{MIN_PACKET_BYTES}, got {loop.packet_size_b}")
    search = _build(SearchConfig, cfg.get("search"), "search",
                    deltas=lambda v: None if v is None else tuple(float(x) for x in v))
    longest = search.grid()[-1]
    if not math.isfinite(last_tick(longest, loop.sweep_len)):
        raise ConfigError(f"invalid search: the grid loop time {longest!r} (deltas or "
                          f"delta_max_ms) puts the last of {loop.sweep_len} ticks past "
                          f"the largest float")
    return Experiment(loop=loop, channel=channel, search=search,
                      limits=_build(GoodnessLimits, cfg.get("limits"), "limits"), raw=cfg)


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
