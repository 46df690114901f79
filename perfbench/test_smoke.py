"""Smoke test of the benchmark's quick mode.

Runs every workload for about a second in both modes and checks that every
metric named in BENCHMARK.json is printed and that no operation failed. It
asserts no timings. Run with:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_quick_mode_prints_every_metric_without_failures():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--all", "--seconds", "1"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.splitlines()[:-1]
    summary = json.loads(proc.stdout.splitlines()[-1])["all"]
    assert set(summary) == {w["name"] for w in SPEC["workloads"]} | {"wire-probe"}
    named = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload, result in summary.items():
        assert result["correct"], workload
        metrics = result["metrics"]
        assert metrics["failed_frac"]["value"] == 0
        for name in named + ["failed_frac"]:
            assert name in metrics, (workload, name)
            assert any(line.split()[:2] == [workload, name] for line in table), (workload, name)
    for name in ("rtt_us_p50", "rtt_us_p99"):
        assert name in summary["wire-probe"]["metrics"]
    assert summary["wire-probe"]["conditions"]["untraced"]["loopback"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "wire-probe",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
