"""Spans and counters around the library's layer boundaries, from outside it.

The tracer wraps the public functions each workload reaches and rebinds the
wrapper in every ``mimoslnr`` module namespace that holds the original:
modules import functions by name, so patching only the defining module would
miss calls made through ``from .linalg import shifted_gram_solve``. Spans are
recorded only while an op is active, so checks and set-up leave no trace.
Spans stay in memory as ``[name, start, end, parent, op]`` and are written
out once, at the end of the run.
"""

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

# Layer (package module) -> wrapped public functions. A name missing from the
# library is skipped and reported as zero, so the metric set stays fixed.
WRAPPED = {
    "linalg": ("hermitian_part", "herm_eig", "psd_sqrt", "shifted_gram_solve"),
    "channel": ("build_correlation", "sample_channel", "trial_rng"),
    "precoding": (
        "default_beta", "rzf_precode", "power_control", "slnr_instantaneous",
        "sinr_instantaneous", "build_precoded_system", "compute_metrics",
    ),
    "asymptotic": ("solve_fixed_point", "gamma_uncorrelated", "gamma_common_r"),
    "loading": (
        "objective_f", "dfdx", "optimal_x_exact", "optimal_x_low_snr",
        "optimal_x_high_snr", "lambert_w0", "eta_threshold",
    ),
    "experiments": (
        "empirical_cdf", "run_cdf_experiment", "run_correlation_sweep",
        "run_loading_sweep", "brute_force_optimal_x", "write_csv",
    ),
}

QUALNAMES = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)


def gram_solve_flops(H, B):
    """Real flops of ``shifted_gram_solve`` computed from array shapes.

    Complex Gram product ``H H*`` (8 n^2 k), complex Cholesky (4 n^3 / 3) and
    the two triangular solves (8 n^2 m). Computed, not measured.
    """
    n, k = np.shape(H)
    m = np.shape(B)[1] if np.ndim(B) == 2 else 1
    return 8.0 * n * n * k + 4.0 * n**3 / 3.0 + 8.0 * n * n * m


def _hook_gram_solve(tracer, bound, result):
    tracer.counters["linalg.shifted_gram_solve.flops"] += gram_solve_flops(
        bound.arguments["H"], bound.arguments["B"]
    )


def _hook_fixed_point(tracer, bound, result):
    tracer.counters["asymptotic.solve_fixed_point.iterations"] += result.iterations


def _hook_write_csv(tracer, bound, result):
    tracer.counters["experiments.write_csv.bytes"] += os.path.getsize(bound.arguments["path"])


HOOKS = {
    "linalg.shifted_gram_solve": _hook_gram_solve,
    "asymptotic.solve_fixed_point": _hook_fixed_point,
    "experiments.write_csv": _hook_write_csv,
}


class Tracer:
    """In-memory span recorder; ``op`` is the active op id or ``None``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.errors = dict.fromkeys(QUALNAMES, 0)
        self.counters = {
            "linalg.shifted_gram_solve.flops": 0.0,
            "asymptotic.solve_fixed_point.iterations": 0,
            "experiments.write_csv.bytes": 0,
        }
        self._patched = []

    def _wrap(self, qualname, fn):
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[qualname] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self):
        """Rebind every wrapped function in every loaded ``mimoslnr`` module."""
        wrappers = {}
        for qualname in QUALNAMES:
            layer, name = qualname.split(".")
            fn = getattr(sys.modules[f"mimoslnr.{layer}"], name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(qualname, fn))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mimoslnr"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_ms(self):
        """Per-function self time: span duration minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(QUALNAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += 1e3 * (end - start - child[i])
        return out

    def calls(self):
        out = dict.fromkeys(QUALNAMES, 0)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def metrics(self, items, trial_items):
        """Per-layer metrics of the traced ops; ``items`` is their item count."""
        calls = self.calls()
        self_ms = self.self_ms()
        out = {}
        for q in QUALNAMES:
            out[f"{q}.calls"] = calls[q]
            out[f"{q}.self_ms"] = self_ms[q]
            out[f"{q}.errors"] = self.errors[q]
        for layer, fns in WRAPPED.items():
            out[f"{layer}.self_ms"] = sum(self_ms[f"{layer}.{fn}"] for fn in fns)
        out["linalg.shifted_gram_solve.gflop_computed"] = (
            self.counters["linalg.shifted_gram_solve.flops"] / 1e9
        )
        iterations = self.counters["asymptotic.solve_fixed_point.iterations"]
        solves = calls["asymptotic.solve_fixed_point"]
        out["asymptotic.solve_fixed_point.iterations"] = iterations
        out["asymptotic.iterations_per_solve"] = iterations / solves if solves else 0.0
        out["experiments.write_csv.bytes"] = self.counters["experiments.write_csv.bytes"]
        # A trial is one channel realization; other workloads have none.
        trials = items if trial_items else 0
        out["precoding.factorizations_per_trial"] = (
            calls["linalg.shifted_gram_solve"] / trials if trials else 0.0
        )
        out["channel.psd_sqrt_per_realization"] = (
            calls["linalg.psd_sqrt"] / trials if trials else 0.0
        )
        return out

    def write_spans(self, path):
        """One JSON array per span: name, start and end in us, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(1e6 * (start - t0), 3),
                                     round(1e6 * (end - t0), 3), parent, op]) + "\n")
