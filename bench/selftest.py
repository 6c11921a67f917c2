"""Self-test of the benchmark's traced mode.

    python3 -m pytest -q bench/selftest.py

Runs ``bench/run.py --trace 1`` twice per workload on one seed (about three
minutes on two cores). Every count metric must repeat exactly, every job must
pass its checks, and the layers a workload bypasses must show no time. The
file name keeps it out of the repository's own test collection.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("conformal_sweep", "torus_topology", "dense_cloud")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    COUNT_METRICS = [m["name"] for m in json.load(_fh)["per_layer"]
                     if m["unit"] == "count"]


def traced_run(workload: str, seed: int) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(res.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {w: [traced_run(w, seed=3) for _ in range(2)] for w in WORKLOADS}


def value(result: dict, metric: str):
    return result["metrics"][metric]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_are_correct(runs, workload):
    for result in runs[workload]:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]
    for metric in COUNT_METRICS:
        assert value(first, metric) == value(second, metric), metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bypassed_layers_take_no_time(runs, workload):
    for result in runs[workload]:
        eval_at = value(result, "boundary.eval_at.s")
        dn_fem = value(result, "dn.dn_fem.s")
        assert (eval_at > 0) == (workload == "conformal_sweep")
        assert (dn_fem > 0) == (workload == "torus_topology")
