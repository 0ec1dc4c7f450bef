"""One fresh benchmark process: import the library, set up, run ops, check them.

``run.py`` starts this script once per sample, so package import and every
import-time or first-use cost land in ``setup_s``. The first import of note
is ``mimoslnr``: numpy is not loaded before it, so any configuration the
package applies at import takes effect as it would for a user. The process
prints one JSON line with its raw timings, check results and provenance.

Set-up ends right before the first timed op. ``--t0`` is the parent's
``time.monotonic()`` just before it started this process; on Linux that
clock is CLOCK_MONOTONIC, shared by every process on the machine.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0, help="time-bounded run length")
    p.add_argument("--fixed-ops", action="store_true",
                   help="run the workload's trace_ops ops instead")
    p.add_argument("--trace", action="store_true", help="record spans around the library's layers")
    p.add_argument("--reference", action="store_true",
                   help="also run the workload's reference check, if it has one")
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    return p.parse_args(argv)


def run_ops(workload, args, inp, tracer):
    """Timed loop: a fixed op count, or ops until ``--seconds`` have passed."""
    fixed = workload.trace_ops if args.fixed_ops else 0
    ops, kept = [], []
    start = time.perf_counter()
    op = 0
    while True:
        if tracer is not None:
            tracer.op = op
        t = time.perf_counter()
        try:
            out, error = workload.run(inp), None
        except Exception:  # a failing op is counted, and the run goes on
            out, error = None, traceback.format_exc()
        wall = time.perf_counter() - t
        if tracer is not None:
            tracer.op = None
        ops.append({"wall_s": wall, "items": 0 if error else workload.items_per_op, "error": error})
        kept.append((inp, out))
        op += 1
        if fixed and op >= fixed:
            break
        if not fixed and time.perf_counter() - start >= args.seconds:
            break
        inp = workload.inputs(args.seed, op, args.out_dir)
    return ops, kept


def check_ops(workload, args, ops, kept):
    for op, (record, (inp, out)) in enumerate(zip(ops, kept)):
        if record["error"]:
            record["problems"] = ["op raised"]
            continue
        try:
            record["problems"] = workload.check(inp, out, args.seed, op)
        except Exception:  # a check that cannot run is a failed check
            record["problems"] = [traceback.format_exc()]


def main(argv=None):
    args = parse_args(argv)
    import mimoslnr

    # Lazy constants (eta_threshold, x_upper_tight) are paid by first use.
    mimoslnr.loading_constants()

    import blas
    import provenance
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(args.out_dir, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    inp = workload.inputs(args.seed, 0, args.out_dir)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        ops, kept = run_ops(workload, args, inp, tracer)
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = (
            usage1.ru_utime + usage1.ru_stime - usage0.ru_utime - usage0.ru_stime
        )
        result["peak_rss_mib"] = usage1.ru_maxrss / 1024.0
        result["runtime"] = provenance.runtime_info()
        if tracer is not None:
            tracer.uninstall()
            items = sum(r["items"] for r in ops)
            result["layers"] = tracer.metrics(items, workload.trial_items)
            if args.spans:
                tracer.write_spans(args.spans)
        # Checks are untimed; one BLAS thread spares them the pool contention.
        blas.set_threads(1)
        check_ops(workload, args, ops, kept)
        result["ops"] = ops
        if args.reference and hasattr(workload, "check_reference"):
            result["reference_problems"] = workload.check_reference(args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
