"""Benchmark of the mimoslnr library; see perfbench/README.md.

    python3 perfbench/run.py --workload mc-iid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every sample is a fresh ``child.py``
process; this parent only starts them, turns their raw timings into the
metrics that ``BENCHMARK.json`` declares, and prints one JSON object as the
last line of standard output. Provenance, per-op detail and check problems
go to ``.perfbench_out/results/`` and a summary to standard error.

``--trace 0`` reports the end-to-end metrics of a time-bounded, untraced
run. ``--trace 1`` reports per-layer metrics from a fixed number of traced
ops, so that its counters repeat exactly, plus the tracing overhead against
an untraced run of the same ops and, on the two Monte Carlo workloads, a
traced run with ``OPENBLAS_NUM_THREADS=1`` as the single-threaded baseline.
No other run sets a BLAS or thread variable.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import provenance  # noqa: E402  (standard library only)

WORKLOADS = ("mc-iid", "mc-corr", "asym-sweep", "loading-sweep")
SINGLE_THREAD_WORKLOADS = ("mc-iid", "mc-corr")
LAYERS = ("linalg", "channel", "precoding", "asymptotic", "loading", "experiments")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SPANS_DIR = os.path.join(OUT_ROOT, "spans")
RESULTS_DIR = os.path.join(OUT_ROOT, "results")
SETUP_SAMPLES = 5  # fresh processes timed to the first op; setup_s is their median
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def spawn(workload, seed, work_dir, extra, env=None):
    """Run one child process to completion and return its JSON result."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--out-dir", work_dir, "--t0", repr(t0), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {extra} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {extra} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def op_stats(child):
    """End-to-end figures of one child's timed ops."""
    ops = child["ops"]
    items = sum(op["items"] for op in ops)
    if items == 0:
        raise BenchError("no op completed")
    return {
        "items_per_s": items / sum(op["wall_s"] for op in ops),
        "item_ms_p50": statistics.median(
            1e3 * op["wall_s"] / op["items"] for op in ops if op["items"]
        ),
        "cpu_ms_per_item": 1e3 * child["cpu_s"] / items,
    }


def tally(children):
    """Ops attempted and failed, with every problem found, over all children."""
    attempted, failed, problems = 0, 0, []
    for child in children:
        for op in child["ops"]:
            attempted += 1
            failed += bool(op["problems"])
            problems.extend(op["problems"])
        if "reference_problems" in child:
            attempted += 1
            failed += bool(child["reference_problems"])
            problems.extend(child["reference_problems"])
    return attempted, failed, problems


def measure(args, work_dir):
    """Untraced, time-bounded run; end-to-end metrics."""
    setups = [
        spawn(args.workload, args.seed, work_dir, ["--setup-only"])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    main = spawn(args.workload, args.seed, work_dir, ["--seconds", repr(args.seconds), "--reference"])
    setups.append(main["setup_s"])
    main["setup_s_samples"] = setups
    metrics = op_stats(main)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = main["peak_rss_mib"]
    return metrics, [main]


def trace(args, work_dir):
    """Fixed-op traced run; per-layer metrics."""
    ops = ["--fixed-ops"]
    plain = spawn(args.workload, args.seed, work_dir, ops)
    spans = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.jsonl")
    traced = spawn(
        args.workload, args.seed, work_dir, [*ops, "--trace", "--reference", "--spans", spans]
    )
    children = [plain, traced]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (
        op_stats(traced)["item_ms_p50"] / op_stats(plain)["item_ms_p50"] - 1.0
    )
    single = {f"single_thread.{layer}.self_ms": 0.0 for layer in LAYERS}
    single.update({f"single_thread.{k}": 0.0 for k in ("items_per_s", "item_ms_p50", "cpu_ms_per_item")})
    if args.workload in SINGLE_THREAD_WORKLOADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        spans = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}-single-thread.jsonl")
        one = spawn(
            args.workload, args.seed, work_dir, [*ops, "--trace", "--spans", spans], env=env
        )
        children.append(one)
        single.update({f"single_thread.{k}": v for k, v in op_stats(one).items()})
        single.update(
            {f"single_thread.{layer}.self_ms": one["layers"][f"{layer}.self_ms"] for layer in LAYERS}
        )
    metrics.update(single)
    return metrics, children


def declared(trace_flag):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_flag else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mimoslnr", "__init__.py")):
        print(f"error: no mimoslnr sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = declared(args.trace)
    work_dir = os.path.join(OUT_ROOT, "work", str(os.getpid()))
    for d in (work_dir, SPANS_DIR, RESULTS_DIR):
        os.makedirs(d, exist_ok=True)
    try:
        run = trace if args.trace else measure
        values, children = run(args, work_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run lacks: {missing}", file=sys.stderr)
        return 1
    attempted, failed, problems = tally(children)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "source": provenance.source_info(ROOT), "runtime": children[0]["runtime"],
        "children": [{k: v for k, v in c.items() if k != "runtime"} for c in children],
        "problems": problems, "result": result,
    }
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {k: record[k] for k in ("workload", "seed", "source", "runtime")}
    print(f"provenance: {json.dumps(summary)}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
