"""The package loads a module only when a name from it is used.

Each check that depends on what is already imported runs in a fresh
interpreter, since this test process has loaded every module.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tcpsbench

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the names the package exports, by the module that defines each
EXPORTS = {
    "core": ["CurveMetrics", "DEFAULT_LIMITS", "GoodnessLimits", "MalformedCurve",
             "NoStepDetected", "RttBudget", "StepResponseCurve", "TcpsbenchError",
             "extract_metrics", "rtt_budget", "write_curve_csv"],
    "loopsim": ["LoopConfig", "Operator", "Plant", "Robot", "StepExperimentRecord",
                "difference_trace", "oracle_trace", "plant", "robot_lag", "run_step_experiment"],
    "netsim": ["Link", "Topology", "TrafficFlow", "channel_from_topology",
               "closed_form_delivery", "route", "simulate_delivery"],
    "qoc": ["NoGoodDelta", "PerfCurve", "QoCResult", "SearchConfig", "StepRunner",
            "estimate_goodness", "find_delta_opt", "find_delta_opt_bar", "iae", "perf_curve",
            "qoc_value", "v_max"],
    "sickness": ["HandTrajectory", "SicknessReport", "compliant_trajectory", "measure_E",
                 "predict_E"],
    "transport": ["ChannelModel", "ChecksumMismatch", "ImpairedChannel", "Jitter", "LinkParams",
                  "Packet", "PacketTooSmall", "TruncatedPacket", "decode", "encode",
                  "ideal_model"],
}


def fresh(code: str):
    """Runs code in a new interpreter and returns the JSON it prints last."""
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    added = fresh("""
        import json, sys
        before = set(sys.modules)
        import tcpsbench
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert [m for m in added if m.startswith("tcpsbench.") or m.split(".")[0] == "numpy"] == []
    assert "tcpsbench" in added


def test_all_holds_the_exported_names():
    want = sorted(n for names in EXPORTS.values() for n in names)
    assert len(want) == 56
    assert sorted(tcpsbench.__all__) == sorted([*want, "__version__"])


def _used_names(path: Path) -> set[str]:
    """The names a module's code reads: a bare name, an attribute, or a
    string that is exactly the name (perfbench wraps functions by name).
    A top-level definition's own name does not count inside it."""
    used = set()
    for stmt in ast.parse(path.read_text("utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def test_every_exported_name_has_a_product_caller():
    """Each exported name is used by the package itself, a demo or the
    benchmark, not only by tests: the export table of `__init__` and the
    benchmark's own tests do not count."""
    files = [p for p in (SRC / "tcpsbench").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"),
              *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    used = set().union(*map(_used_names, files))
    assert [n for n in tcpsbench.__all__ if n != "__version__" and n not in used] == []


def test_each_name_is_its_own_modules_object():
    """A name is looked up once: the first use binds it in the package."""
    mismatched, unbound = fresh(f"""
        import importlib, json, tcpsbench
        exports = {EXPORTS!r}
        print(json.dumps([[name for module, names in exports.items() for name in names
                           if getattr(tcpsbench, name) is not getattr(
                               importlib.import_module("tcpsbench." + module), name)],
                          [name for name in tcpsbench.__all__ if name not in vars(tcpsbench)]]))
    """)
    assert mismatched == [] and unbound == []


def test_dir_and_star_import_list_every_name():
    missing = fresh("""
        import json, tcpsbench
        not_in_dir = [n for n in tcpsbench.__all__ if n not in dir(tcpsbench)]
        from tcpsbench import *
        print(json.dumps([not_in_dir, [n for n in tcpsbench.__all__ if n not in globals()]]))
    """)
    assert missing == [[], []]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tcpsbench.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from tcpsbench import no_such_name  # noqa: F401


def test_submodules_import_as_the_first_statement():
    assert fresh("""
        from tcpsbench import cli, clock, core, netsim, qoc, sickness, transport
        import json
        print(json.dumps([m.__name__ for m in (cli, clock, core, netsim, qoc, sickness, transport)]))
    """) == [f"tcpsbench.{m}" for m in ("cli", "clock", "core", "netsim", "qoc", "sickness",
                                          "transport")]


def test_netsim_loads_no_loop_simulation():
    """netsim takes its input checks from core, not from loopsim."""
    assert fresh("""
        import json, sys
        import tcpsbench.netsim
        print(json.dumps("tcpsbench.loopsim" in sys.modules))
    """) is False


@pytest.mark.parametrize("presets, channel, unloaded", [
    (["ideal", "testbed-overhead-like"], "ImpairedChannel",
     ["tcpsbench.netsim", "tcpsbench.sickness", "tcpsbench.cli", "socket"]),
    (["usnet-nw", "vrep-like"], "NetsimChannel",
     ["tcpsbench.sickness", "tcpsbench.cli", "socket"]),
], ids=["impaired", "topology"])
def test_setup_loads_only_what_it_runs(presets, channel, unloaded):
    """A preset's set-up, as a benchmark child runs it, loads no module its
    channel kind does not use. Loaded modules only accumulate, so checking
    after each preset covers the ones before it."""
    got = fresh(f"""
        import json, sys
        from tcpsbench.experiments import load_experiment
        seen = []
        for preset in {presets!r}:
            exp = load_experiment(preset)
            chan = exp.runner().channel_factory(exp.search.trial_seed(0))
            seen.append([type(chan).__name__, [m for m in {unloaded!r} if m in sys.modules]])
        print(json.dumps(seen))
    """)
    assert got == [[channel, []]] * len(presets)
