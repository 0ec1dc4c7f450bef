"""The four benchmark workloads: inputs from a seed, one timed op, output checks.

Every op calls the library through the ``mimoslnr`` package namespace, so the
tracer's rebinding of those names reaches the calls made here. Each check
compares an op's output with an in-repo oracle at the tolerance the
acceptance suite uses, and returns a list of problems (empty when correct).
Checks run outside the timed region and outside any traced op.
"""

import json
import os

import numpy as np

import mimoslnr as ms

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "asym_sweep_seed0.json")

SLNR_RTOL = 1e-8      # fast SLNR route against the leave-one-out oracle
CHANNEL_RTOL = 1e-9   # sampled H against the benchmark's own rebuild
CLOSED_FORM_RTOL = 1e-10  # rho = 0 sweep row against the closed form
REFERENCE_RTOL = 1e-8  # sweep rows against values recorded at the seed commit
LOADING_ATOL = 1e-3   # exact loading root against the grid-search oracle


def op_seed(seed, op):
    """Library seed for op ``op`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def check_rng(seed, op):
    """Stream that picks which parts of an op's output the check recomputes."""
    return np.random.default_rng([seed, op, 1])


def read_csv(path):
    """Columns of a CSV written by ``write_csv``, as float arrays."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def white_channel(rng, N, K):
    return (rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))) / np.sqrt(2.0)


def rebuild_exp_random_channel(seed, trial, N, K, rho):
    """H of an exp-random trial, rebuilt from the exponential model alone.

    Follows the documented stream layout of ``trial_rng(seed, trial)``: K
    phases first, then the white channel. Square roots come from a plain
    ``eigh`` rather than the library's ``psd_sqrt``.
    """
    rng = ms.trial_rng(seed, trial)
    thetas = rng.uniform(0.0, 2.0 * np.pi, K)
    hw = white_channel(rng, N, K)
    d = np.subtract.outer(np.arange(N), np.arange(N))
    H = np.empty((N, K), dtype=complex)
    for k, theta in enumerate(thetas):
        w, U = np.linalg.eigh(rho ** np.abs(d) * np.exp(1j * d * theta))
        H[:, k] = (U * np.sqrt(np.clip(w, 0.0, None))) @ (U.conj().T @ hw[:, k])
    return H


def check_slnr(H, eta, slnr, label):
    ref = ms.slnr_leave_one_out(H, eta)
    err = rel_err(slnr, ref)
    return [] if err <= SLNR_RTOL else [f"{label}: SLNR off the leave-one-out oracle by {err:.2e}"]


class McIid:
    """``sweep-cdf`` at its defaults: identity profile, 64x32, 20 dB, 100 trials."""

    name = "mc-iid"
    N, K, SNR_DB, TRIALS = 64, 32, 20.0, 100
    items_per_op = TRIALS
    trial_items = True
    trace_ops = 2
    checked_trials = 1

    def inputs(self, seed, op, out_dir):
        config = ms.SystemConfig.make(
            N=self.N, K=self.K, snr_db=self.SNR_DB, kind="identity",
            trials=self.TRIALS, seed=op_seed(seed, op),
        )
        return {"config": config, "path": os.path.join(out_dir, f"{self.name}-{op}.csv")}

    def run(self, inp):
        ms.write_csv(ms.run_cdf_experiment(inp["config"]), inp["path"])
        return inp["path"]

    def check(self, inp, out, seed, op):
        config = inp["config"]
        cols = read_csv(out)
        slnr = cols["slnr"]
        if slnr.size != self.TRIALS * self.K or np.any(np.diff(slnr) < 0):
            return [f"op {op}: slnr column is not {self.TRIALS * self.K} sorted values"]
        gamma = ms.gamma_uncorrelated(self.N / self.K, config.eta)
        problems = []
        if rel_err(cols["gamma_asymptotic"], gamma) > CLOSED_FORM_RTOL:
            problems.append(f"op {op}: gamma_asymptotic is not the closed form")
        rng = check_rng(seed, op)
        for t in rng.choice(self.TRIALS, self.checked_trials, replace=False):
            H = white_channel(ms.trial_rng(config.seed, int(t)), self.N, self.K)
            ref = ms.slnr_leave_one_out(H, config.eta)
            # The pooled column is sorted; each oracle value must appear in it.
            idx = np.clip(np.searchsorted(slnr, ref), 1, slnr.size - 1)
            nearest = np.where(
                np.abs(slnr[idx] - ref) < np.abs(slnr[idx - 1] - ref), slnr[idx], slnr[idx - 1]
            )
            err = rel_err(nearest, ref)
            if err > SLNR_RTOL:
                problems.append(f"op {op} trial {t}: SLNR off the leave-one-out oracle by {err:.2e}")
        return problems


class McCorr:
    """``sample_channel`` plus ``compute_metrics``: exp-random, rho 0.6, 128x64, 20 dB."""

    name = "mc-corr"
    N, K, SNR_DB, RHO, TRIALS = 128, 64, 20.0, 0.6, 2
    items_per_op = TRIALS
    trial_items = True
    trace_ops = 3

    def inputs(self, seed, op, out_dir):
        config = ms.SystemConfig.make(
            N=self.N, K=self.K, snr_db=self.SNR_DB, kind="exp-random", rho=self.RHO,
            trials=self.TRIALS, seed=op_seed(seed, op),
        )
        return {"config": config}

    def run(self, inp):
        config = inp["config"]
        out = []
        for t in range(config.trials):
            H = ms.sample_channel(config, t).H
            out.append((H, ms.compute_metrics(H, config.eta).slnr))
        return out

    def check(self, inp, out, seed, op):
        config = inp["config"]
        t = int(check_rng(seed, op).integers(config.trials))
        H, slnr = out[t]
        ref = rebuild_exp_random_channel(config.seed, t, self.N, self.K, self.RHO)
        err = np.linalg.norm(H - ref) / np.linalg.norm(ref)
        if err > CHANNEL_RTOL:
            return [f"op {op} trial {t}: H off the rebuilt channel by {err:.2e}"]
        return check_slnr(ref, config.eta, slnr, f"op {op} trial {t}")


class AsymSweep:
    """``sweep-correlation`` at N=64, alpha=0.75, 20 dB, rho 0:0.9:10, 2 theta draws."""

    name = "asym-sweep"
    N, ALPHA, SNR_DB, DRAWS = 64, 0.75, 20.0, 2
    RHO_GRID = np.linspace(0.0, 0.9, 10)
    items_per_op = RHO_GRID.size * (1 + DRAWS)  # dense fixed-point solves
    trial_items = False
    trace_ops = 2
    # Columns that do not depend on the theta-draw seed.
    SEED_FREE = ("rho", "gamma_exp_even", "gamma_exp_common", "gamma_uncorrelated")
    GAMMAS = (
        "gamma_exp_even", "gamma_exp_random_avg", "gamma_exp_random_single_draw",
        "gamma_exp_common",
    )

    def __init__(self):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            self.reference = {k: np.array(v, dtype=float) for k, v in json.load(fh).items()}

    def inputs(self, seed, op, out_dir):
        return {"seed": op_seed(seed, op), "path": os.path.join(out_dir, f"{self.name}-{op}.csv")}

    def run(self, inp):
        result = ms.run_correlation_sweep(
            N=self.N, alpha=self.ALPHA, snr_db=self.SNR_DB, rho_grid=self.RHO_GRID,
            trials_for_random_theta=self.DRAWS, seed=inp["seed"],
        )
        ms.write_csv(result, inp["path"])
        return inp["path"]

    def check(self, inp, out, seed, op):
        return self.check_columns(read_csv(out), self.SEED_FREE, f"op {op}")

    def check_columns(self, cols, reference_names, label):
        problems = []
        ref = cols["gamma_uncorrelated"][0]
        K = int(round(self.ALPHA * self.N))
        closed_form = ms.gamma_uncorrelated(self.N / K, 10.0 ** (-self.SNR_DB / 10.0))
        if rel_err(ref, closed_form) > CLOSED_FORM_RTOL:
            problems.append(f"{label}: gamma_uncorrelated is not the closed form")
        for name in self.GAMMAS:
            if rel_err(cols[name][0], ref) > CLOSED_FORM_RTOL:
                problems.append(f"{label}: rho=0 {name} off the closed form")
        if np.any(cols["gamma_exp_common"] > cols["gamma_uncorrelated"] * (1.0 + CLOSED_FORM_RTOL)):
            problems.append(f"{label}: gamma_exp_common exceeds gamma_uncorrelated")
        for name in reference_names:
            err = rel_err(cols[name], self.reference[name])
            if err > REFERENCE_RTOL:
                problems.append(f"{label}: {name} off the recorded reference by {err:.2e}")
        return problems

    def check_reference(self, out_dir):
        """Every column of the seed-0 sweep against the recorded rows."""
        path = self.run({"seed": 0, "path": os.path.join(out_dir, f"{self.name}-reference.csv")})
        return self.check_columns(read_csv(path), tuple(self.reference), "seed-0 reference")


class LoadingSweep:
    """``sweep-loading`` over 81 SNR points on 0-40 dB, jittered per op."""

    name = "loading-sweep"
    POINTS, LO_DB, HI_DB = 81, 0.0, 40.0
    items_per_op = POINTS
    trial_items = False
    trace_ops = 20
    checked_points = 8

    def inputs(self, seed, op, out_dir):
        step = (self.HI_DB - self.LO_DB) / (self.POINTS - 1)
        rng = np.random.default_rng([seed, op])
        grid = np.linspace(self.LO_DB, self.HI_DB, self.POINTS)
        grid = grid + rng.uniform(-0.25 * step, 0.25 * step, self.POINTS)
        return {"grid": grid, "path": os.path.join(out_dir, f"{self.name}-{op}.csv")}

    def run(self, inp):
        ms.write_csv(ms.run_loading_sweep(inp["grid"]), inp["path"])
        return inp["path"]

    def check(self, inp, out, seed, op):
        cols = read_csv(out)
        if not np.array_equal(cols["snr_db"], inp["grid"]):
            return [f"op {op}: snr_db column does not echo the input grid"]
        eta = 10.0 ** (-inp["grid"] / 10.0)
        problems = []
        expect_clamped = eta >= ms.eta_threshold()
        if not np.array_equal(cols["clamped"] == 1.0, expect_clamped):
            problems.append(f"op {op}: clamped is not set exactly when eta >= eta_threshold()")
        for i in check_rng(seed, op).choice(self.POINTS, self.checked_points, replace=False):
            gap = abs(cols["x_exact"][i] - ms.brute_force_optimal_x(eta[i]))
            if gap > LOADING_ATOL:
                problems.append(f"op {op} point {i}: exact root off the grid search by {gap:.2e}")
        return problems


WORKLOADS = {cls.name: cls for cls in (McIid, McCorr, AsymSweep, LoadingSweep)}
