"""tcpsbench: step-response benchmarking for tactile cyber-physical systems.

Replace the human operator with a PI controller, drive step-response
experiments over simulated or real network channels, and report the
Quality-of-Control metric, QoC performance curves, the hand-speed ceiling
V_max, and the cybersickness exposure E.

`import tcpsbench` loads no submodule: each exported name loads its own
module on first use (PEP 562), so a script pays only for what it runs.
"""

import importlib

_EXPORTS = {
    "core": ("CurveMetrics", "DEFAULT_LIMITS", "GoodnessLimits", "MalformedCurve",
             "NoStepDetected", "RttBudget", "StepResponseCurve", "TcpsbenchError",
             "classify_good", "critical_loops", "extract_metrics", "max_rtt_kvl",
             "read_curve_csv", "rtt_budget", "write_curve_csv"),
    "loopsim": ("LoopConfig", "Operator", "Plant", "Robot", "StepExperimentRecord",
                "difference_trace", "oracle_trace", "plant", "robot_lag", "run_step_experiment"),
    "netsim": ("Link", "Topology", "TrafficFlow", "channel_from_topology",
               "closed_form_delivery", "route", "simulate_delivery"),
    "qoc": ("NoGoodDelta", "PerfCurve", "QoCResult", "SearchConfig", "StepRunner",
            "estimate_goodness", "find_delta_opt", "find_delta_opt_bar", "iae", "perf_curve",
            "qoc_value", "quad_cost", "v_max"),
    "sickness": ("HandTrajectory", "SicknessReport", "SpeedDist", "compliant_trajectory",
                 "error_trace_vs_speed", "measure_E", "predict_E", "synth_trajectory"),
    "transport": ("ChannelModel", "ChecksumMismatch", "ImpairedChannel", "Jitter", "LinkParams",
                  "Packet", "PacketTooSmall", "TruncatedPacket", "decode", "encode",
                  "ideal_model"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
