"""The tracer: exact counters repeat, self time excludes children, names match.

Run with ``python3 -m pytest perfbench/tests/bench_checks.py
perfbench/tests/bench_trace.py`` from the repository root.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import blas  # noqa: E402
import child  # noqa: E402
import mimoslnr  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT = ("asymptotic.solve_fixed_point.iterations", "precoding.factorizations_per_trial",
         "channel.psd_sqrt_per_realization")
# Per-layer metrics that run.py adds from its other child processes.
FROM_PARENT_PREFIXES = ("trace.", "single_thread.")


@pytest.fixture(scope="module", autouse=True)
def one_blas_thread():
    blas.set_threads(1)


def traced_counters(name, tmp_path, seed=5):
    tmp_path.mkdir()
    workload = workloads.WORKLOADS[name]()
    workload.trace_ops = 1
    args = argparse.Namespace(seed=seed, out_dir=str(tmp_path), fixed_ops=True, seconds=0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops, _ = child.run_ops(workload, args, workload.inputs(seed, 0, str(tmp_path)), tracer)
    finally:
        tracer.uninstall()
    assert all(op["error"] is None for op in ops)
    metrics = tracer.metrics(sum(op["items"] for op in ops), workload.trial_items)
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in EXACT}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat(name, tmp_path):
    first = traced_counters(name, tmp_path / "a")
    second = traced_counters(name, tmp_path / "b")
    assert first == second
    assert first["loading.dfdx.calls"] == second["loading.dfdx.calls"]
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


def test_uninstall_restores_every_binding():
    before = {m: dict(vars(m)) for n, m in sys.modules.items() if n.split(".")[0] == "mimoslnr"}
    tracer = tracing.Tracer()
    tracer.install()
    assert mimoslnr.experiments.compute_metrics is not before[mimoslnr.experiments]["compute_metrics"]
    tracer.uninstall()
    for module, namespace in before.items():
        for attr, value in namespace.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr}"


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        ["experiments.run_cdf_experiment", 0.0, 1.0, -1, 0],
        ["precoding.compute_metrics", 0.1, 0.5, 0, 0],
        ["linalg.shifted_gram_solve", 0.2, 0.3, 1, 0],
        ["linalg.shifted_gram_solve", 0.3, 0.45, 1, 0],
    ])
    self_ms = tracer.self_ms()
    assert self_ms["experiments.run_cdf_experiment"] == pytest.approx(600.0)
    assert self_ms["precoding.compute_metrics"] == pytest.approx(150.0)
    assert self_ms["linalg.shifted_gram_solve"] == pytest.approx(250.0)


def test_untraced_calls_leave_no_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mimoslnr.loading.optimal_x_exact(0.05)
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_declared_per_layer_metrics_are_produced(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(tracing.Tracer().metrics(0, False))
    missing = {n for n in declared - produced if not n.startswith(FROM_PARENT_PREFIXES)}
    assert missing == set()
