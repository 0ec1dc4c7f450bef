"""Each workload's output check passes a clean op and catches a corrupted one.

Run with ``python3 -m pytest perfbench/tests/bench_checks.py
perfbench/tests/bench_trace.py`` from the repository root. The file names do
not match pytest's default pattern, so a bare ``pytest`` at the root (the
library's own suite) does not collect them.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import blas  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", autouse=True)
def one_blas_thread():
    # These tests time nothing; one thread keeps the small solves fast.
    blas.set_threads(1)


@pytest.fixture(scope="module")
def op_outputs(tmp_path_factory):
    """One op of every workload, run once for the module."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        inp = workload.inputs(SEED, 0, str(tmp_path_factory.mktemp(name)))
        out[name] = (workload, inp, workload.run(inp))
    return out


def copy_csv(op_outputs, name, tmp_path):
    """The op's CSV output copied to a private path, with its inputs."""
    workload, inp, path = op_outputs[name]
    mine = str(tmp_path / os.path.basename(path))
    shutil.copy(path, mine)
    return workload, inp, mine


def rewrite_column(path, column, fn):
    """Replace ``column[i]`` by ``fn(i, value)`` in a CSV written by write_csv."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    for row, i in enumerate(range(header + 1, len(lines))):
        cells = lines[i].split(",")
        cells[col] = repr(float(fn(row, float(cells[col]))))
        lines[i] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_output_passes(op_outputs, name):
    workload, inp, out = op_outputs[name]
    assert workload.check(inp, out, SEED, 0) == []


def test_reference_rows_pass(tmp_path):
    assert workloads.AsymSweep().check_reference(str(tmp_path)) == []


@pytest.mark.parametrize("column, fn", [
    ("slnr", lambda i, v: v * (1.0 + 1e-6)),
    ("gamma_asymptotic", lambda i, v: v * (1.0 + 1e-8)),
])
def test_mc_iid_corruption_caught(op_outputs, tmp_path, column, fn):
    workload, inp, path = copy_csv(op_outputs, "mc-iid", tmp_path)
    rewrite_column(path, column, fn)
    assert workload.check(inp, path, SEED, 0)


@pytest.mark.parametrize("part", [0, 1])
def test_mc_corr_corruption_caught(op_outputs, part):
    workload, inp, out = op_outputs["mc-corr"]
    corrupted = []
    for trial in out:
        trial = [x.copy() for x in trial]
        trial[part] *= 1.0 + 1e-6
        corrupted.append(tuple(trial))
    assert workload.check(inp, corrupted, SEED, 0)


@pytest.mark.parametrize("column, fn", [
    ("gamma_exp_random_avg", lambda i, v: v * (1.0 + 1e-9) if i == 0 else v),
    ("gamma_exp_common", lambda i, v: v * 1.001 if i == 5 else v),
    ("gamma_exp_even", lambda i, v: v * (1.0 + 1e-6) if i == 9 else v),
])
def test_asym_sweep_corruption_caught(op_outputs, tmp_path, column, fn):
    workload, inp, path = copy_csv(op_outputs, "asym-sweep", tmp_path)
    rewrite_column(path, column, fn)
    assert workload.check(inp, path, SEED, 0)


@pytest.mark.parametrize("column, fn", [
    ("x_exact", lambda i, v: v + 0.01),
    ("clamped", lambda i, v: 1.0 - v if i == 40 else v),
])
def test_loading_sweep_corruption_caught(op_outputs, tmp_path, column, fn):
    workload, inp, path = copy_csv(op_outputs, "loading-sweep", tmp_path)
    rewrite_column(path, column, fn)
    assert workload.check(inp, path, SEED, 0)


def test_rebuilt_channel_matches_library():
    workload = workloads.McCorr()
    inp = workload.inputs(SEED, 1, "")
    config = inp["config"]
    H = workloads.ms.sample_channel(config, 1).H
    ref = workloads.rebuild_exp_random_channel(config.seed, 1, workload.N, workload.K, workload.RHO)
    assert np.linalg.norm(H - ref) <= workloads.CHANNEL_RTOL * np.linalg.norm(ref)


def test_run_fails_without_sources(tmp_path):
    """Beside only BENCHMARK.json and the benchmark, it exits nonzero, silently."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-iid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
