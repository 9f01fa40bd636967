"""The benchmark's contract with alblab: everything bench/ calls still exists.

bench/inputs.py and bench/worker.py are loaded by path and only read.  For
every workload this builds every seed-0 operation, resolves every function
the tracer wraps, and runs the worker's warm-up; the in-process workloads
also run each operation once, and one traced round must call every traced
function whose home is that workload.  A rename or removal of anything the
benchmark calls then fails here instead of in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))   # inputs.py imports its sibling oracles.py
    try:
        inputs, worker = _load("inputs"), _load("worker")
    finally:
        sys.path.remove(str(BENCH))
    return inputs, worker, worker._import()


def test_traced_functions_exist(bench):
    _inputs, worker, m = bench
    for module, names, _scale, _home in worker.LAYER_FUNCS.values():
        for name in names:
            owner = m[module]
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module}.{name}"


@pytest.mark.parametrize("workload", ("albanese", "deep_series", "exact", "cli"))
def test_operations_build_and_warm_up(bench, workload):
    inputs, worker, m = bench
    for op in inputs.generate(workload, 0):
        if workload == "cli":
            op = dict(op, argv=inputs.cli_argv(op))
            if op["op"] == "batch":
                op["stdin"] = inputs.batch_stdin(op)
        call, render = worker.build(m, op, via_cli=workload == "cli")
        if workload != "cli":   # a cli round starts the selftest
            render(call())
    worker.warm_up(m, workload)


@pytest.mark.parametrize("workload", ("albanese", "deep_series", "exact"))
def test_traced_round_reaches_every_home_metric(bench, workload):
    # a refactor that stops calling a traced function would leave its
    # metric unmeasured, and a traced bench run would then fail
    inputs, worker, m = bench
    ops = [worker.build(m, op) for op in inputs.generate(workload, 0)]
    tracer = worker.Tracer(m)
    stats = tracer.new_stats()
    worker.run_round(ops, tracer, stats)
    home = [key for key, spec in worker.LAYER_FUNCS.items() if spec[3] == workload]
    assert home
    assert [key for key in home if not stats["fn"][key][0]] == []
