"""The searches' work, pinned: the run_batch calls each search command makes.

A search's result can stay the same while it runs more trials, or the same
trials in other calls. For each command below, the test records every
`StepRunner.run_batch` call and checks the count of calls, the count of
trials, and the sha256 of `repr` of the calls (each the list of its
(loop time, seed) trials, in order). The numbers were taken when the
searches ran through three separate scan loops, before one wave driver
(`qoc._Waves`) ran them all; a change to how the searches group their
trials must change them on purpose.
"""

import hashlib

import pytest

from tcpsbench import cli
from tcpsbench.qoc import StepRunner

_CURVE = ["curve", "--config", "testbed-overhead-like", "--gspec-list", "0.5,0.7,0.9,0.95"]

# name -> (argv, run_batch calls, trials, sha256 of repr of the calls)
WORK = {
    "curve": (_CURVE, 18, 1848,
              "0b014f7a040beb7e4d2739c381c8b566a2cd5186c23b0e92db0322e2465a6b90"),
    "curve seed 3": ([*_CURVE, "--seed", "3"], 22, 2137,
                     "d674468d7913e709466948cf7068b8aa8e68b6f343f6cbc0947bda18206b434d"),
    "netsim": (["netsim", "--config", "usnet-nw", "--gspec", "0.9", "--rates", "500000",
                "--placements", "S0:S8", "--pairs", "16", "--flow-pkt-bytes", "64"], 6, 46,
               "6555217c9b39c58502a19ae951a71f70a12f97ef9bb023e5dbdbf2e79702cc57"),
    "qoc": (["qoc", "--config", "vrep-like", "--gspec", "1.0"], 22, 64,
            "bf8f809242d8c0635666ffd0bd8e1306ee249109548d2a4baf9dd26b24dfe73a"),
    "delta-opt ideal": (["delta-opt", "--config", "ideal"], 2, 16,
                        "aabffe77cc0bd7b25b978819ff600da3cf34d5bb84cd0d06da42edaf1c3fe28d"),
    "delta-opt topology": (["delta-opt", "--config", "usnet-nw"], 1, 1,
                           "419795a60ded73ab90066cd123bccad4008d661e18edc3d6dc94759132d9bd2e"),
}


@pytest.mark.parametrize("name", WORK)
def test_a_search_makes_its_recorded_run_batch_calls(name, monkeypatch, tmp_path):
    argv, n_calls, n_trials, digest = WORK[name]
    calls = []
    run_batch = StepRunner.run_batch

    def recorded(self, trials):
        calls.append(list(trials))
        return run_batch(self, trials)

    monkeypatch.setattr(StepRunner, "run_batch", recorded)
    assert cli.run_command([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (len(calls), sum(map(len, calls))) == (n_calls, n_trials)
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == digest
