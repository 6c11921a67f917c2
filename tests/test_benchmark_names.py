"""Every per-layer benchmark metric names a function that exists.

BENCHMARK.json names per-layer metrics ``<layer>.<function>.<metric>``; the
traced benchmark mode looks each function up among the public functions of
``eitlab.<layer>`` (and the method ``BoundaryFunction.eval_at``). Deleting or
renaming one of them must fail here, not only in the slow traced run.
"""

import importlib
import importlib.util
import inspect
import math
import json
import sys
from pathlib import Path

import pytest

from eitlab import dn as dnm
from eitlab import experiments as ex
from eitlab import holomorphic as hm
from eitlab.boundary import BoundaryFunction

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _traced_functions() -> list[str]:
    with open(BENCHMARK) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    # "<layer>.<function>.<metric>"; two-part names are per-layer or harness totals
    return sorted({n.rsplit(".", 1)[0] for n in names if n.count(".") == 2})


FUNCTIONS = _traced_functions()


def test_names_are_read():
    assert "nearboundary.pair_points" in FUNCTIONS
    assert "boundary.eval_at" in FUNCTIONS


@pytest.mark.parametrize("name", FUNCTIONS)
def test_per_layer_function_resolves(name):
    if name == "boundary.eval_at":
        assert inspect.isfunction(BoundaryFunction.__dict__.get("eval_at"))
        return
    layer, function = name.split(".")
    module = importlib.import_module(f"eitlab.{layer}")
    obj = getattr(module, function, None)
    assert not function.startswith("_"), f"{name} is private"
    assert inspect.isfunction(obj), f"eitlab.{layer} has no function {function}"
    assert obj.__module__ == module.__name__, f"{name} is imported, not defined there"


def test_benchmark_projection_call_binds():
    # the torus workload passes seed=, which build_projections keeps as an
    # ignored keyword; dropping it must fail here, not only in the benchmark
    inspect.signature(hm.build_projections).bind(None, 2, seed=1)


def test_benchmark_fem_call_binds():
    # the torus workload passes order=2, and the traced run reads the bound
    # "order" for dn.dn_fem.boundary_dofs; dropping it must fail here
    sig = inspect.signature(dnm.dn_fem)
    sig.bind(None, n_modes=128, order=2, rescale_to=2.0 * math.pi)
    assert "order" in sig.parameters


def test_benchmark_sweep_config_loads(tmp_path, monkeypatch):
    # the sweep workload writes "seed" into its config, and from_json rejects
    # unknown keys, so ExperimentConfig keeps seed as an ignored field;
    # dropping it must fail here, not only in the benchmark
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    inputs = workloads.setup_conformal(3, str(tmp_path))
    cfg = ex.ExperimentConfig.from_json(inputs["config"])
    assert cfg.seed == 3
