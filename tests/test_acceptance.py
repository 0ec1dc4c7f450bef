"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run with ``-s``
to see them live). One check (criterion 4's high-SNR approximation)
encodes a recorded target that the computed quantity provably cannot
meet; it is implemented as stated and fails, with the analysis in its
docstring and in README ("Known red checks").
"""

import math
import time

import numpy as np

from mimoslnr.asymptotic import gamma_uncorrelated
from mimoslnr.channel import (
    SystemConfig, build_correlation, sample_channel, user_phases
)
from mimoslnr.cli import EXIT_OK, main
from mimoslnr.experiments import run_loading_sweep
from mimoslnr.loading import (
    dfdx,
    eta_threshold,
    objective_f,
    optimal_x_exact,
    optimal_x_high_snr,
    optimal_x_low_snr,
)
from mimoslnr.oracles import (
    check_common_r_bound, power_control, rzf_precode, slnr_ratio, solve_fixed_point,
)
from mimoslnr.precoding import compute_metrics


def report(tag, ok, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_fixed_point_matches_closed_form():
    """Matrix fixed point equals the closed form to 1e-10 relative."""
    start = time.perf_counter()
    K = 4
    xs = np.array([1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5,
                   5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 10.0])
    snrs = np.linspace(-10.0, 40.0, 20)
    worst = 0.0
    for x in xs:
        R = [np.eye(int(round(x * K)), dtype=complex)] * K
        for snr in snrs:
            eta = 10.0 ** (-snr / 10.0)
            gamma = solve_fixed_point(R, eta).gamma
            ref = gamma_uncorrelated(x, eta)
            worst = max(worst, float(np.max(np.abs(gamma - ref)) / ref))
    elapsed = time.perf_counter() - start
    report("1", worst <= 1e-10 and elapsed < 10.0,
           f"worst rel dev {worst:.2e} on 20x20 grid, {elapsed:.1f}s")


def test_criterion_2_threshold_value():
    """eta threshold reproduces 0.3256 to 5e-5, in under a second."""
    start = time.perf_counter()
    eta_threshold.cache_clear()
    eta_o = eta_threshold()
    elapsed = time.perf_counter() - start
    report("2 (threshold value)", abs(eta_o - 0.3256) <= 5e-5 and elapsed < 1.0,
           f"eta_o = {eta_o:.7f}, {elapsed:.3f}s")


def test_criterion_2_threshold_db_form():
    """dB form of the threshold: 10*log10(1/0.3256) = 4.8732 +/- 0.01 dB.

    The target is the dB form of this criterion's own recorded value,
    eta_o = 0.3256. It was once recorded as 4.78, a digit slip for 4.87:
    4.78 +/- 0.01 dB means eta in [0.33189, 0.33343], which cannot meet
    0.3256 +/- 5e-5 at the same time. The computed eta_o = 0.3256407 gives
    4.8726 dB; a brute-force argmax of objective_f over x in [1, 1.05]
    places the clamping threshold between 4.87 and 4.88 dB on its own.
    """
    db = 10.0 * math.log10(1.0 / eta_threshold())
    report("2 (threshold dB form)", abs(db - 4.8732) <= 0.01,
           f"computed {db:.4f} dB vs 4.8732 +/- 0.01 dB")


def test_criterion_3_loading_bounds():
    """Tight and loose bounds on the optimizer, and the minimum loading."""
    start = time.perf_counter()
    etas = np.logspace(-6, 1, 500)
    xs = np.array([optimal_x_exact(e).x_star for e in etas])
    tight_ok = bool(np.max(xs) <= 1.3315 + 5e-3)
    loose_ok = bool(np.all(xs < 6.0 * math.sqrt(3.0) - 9.0))
    sweep = run_loading_sweep(np.linspace(0.0, 40.0, 81))
    min_alpha = float(sweep.columns["alpha_exact"].min())
    alpha_ok = abs(min_alpha - 0.751) <= 0.005
    elapsed = time.perf_counter() - start
    report("3", tight_ok and loose_ok and alpha_ok and elapsed < 30.0,
           f"max x* {np.max(xs):.6f}, min alpha {min_alpha:.4f}, {elapsed:.1f}s")


def test_criterion_4_high_snr_approximation():
    """Lambert-W form within 2% of the exact root on SNR in [20, 40] dB.

    Measured with the bisection oracle, the relative error is 5.13% at
    20 dB, 2.06% at 25 dB, and crosses below the 2% target only near
    25.2 dB (0.81% at 30 dB, 0.12% at 40 dB). The recorded target is also
    inconsistent with criterion 3: at 20 dB the approximation gives
    x = 1.3666, so any exact root within 2% of it would exceed the
    1.3315 + 5e-3 cap asserted there. Implemented as recorded; fails.
    """
    snrs = np.linspace(20.0, 40.0, 41)
    errs = []
    for snr in snrs:
        eta = 10.0 ** (-snr / 10.0)
        exact = optimal_x_exact(eta, tol=1e-12).x_star
        errs.append(abs(optimal_x_high_snr(eta) - exact) / exact)
    worst = float(np.max(errs))
    report("4 (high-SNR within 2%)", worst < 0.02,
           f"max rel err {worst:.4f} at {snrs[int(np.argmax(errs))]:.1f} dB")


def test_criterion_4_low_snr_approximation():
    """Taylor form within 5% of the exact root on SNR in [5, 6.5] dB."""
    snrs = np.linspace(5.0, 6.5, 16)
    errs = []
    for snr in snrs:
        eta = 10.0 ** (-snr / 10.0)
        exact = optimal_x_exact(eta, tol=1e-12).x_star
        errs.append(abs(optimal_x_low_snr(eta) - exact) / exact)
    worst = float(np.max(errs))
    report("4 (low-SNR within 5%)", worst < 0.05, f"max rel err {worst:.4f}")


def test_criterion_5_sinr_concentration():
    """SINR concentrates on the deterministic SLNR and tightens with N."""
    start = time.perf_counter()
    medians = {}
    for N, K in ((128, 64), (256, 128)):
        cfg = SystemConfig.make(N=N, K=K, snr_db=20.0, trials=200, seed=11)
        gamma = gamma_uncorrelated(N / K, cfg.eta)
        devs = []
        for t in range(cfg.trials):
            m = compute_metrics(sample_channel(cfg, t).H, cfg.eta)
            devs.append(np.abs(m.sinr - gamma) / gamma)
        medians[N] = float(np.median(np.concatenate(devs)))
    elapsed = time.perf_counter() - start
    ok = medians[128] < 0.10 and medians[256] < medians[128] and elapsed < 300.0
    report("5", ok, f"median dev N=128: {medians[128]:.4f}, N=256: {medians[256]:.4f}, {elapsed:.0f}s")


def test_criterion_6_even_theta_exactness():
    """Even phases reproduce the uncorrelated value to 1e-8 (relative).

    Tolerances follow the package convention of being relative to the
    quantity's scale (gamma is about 36 here). For the record, the largest
    absolute deviation is 2.0e-8 at rho=0.9, driven by the lag-96 residue
    rho^K of the 128-antenna array; the relative deviation stays below
    6e-10.
    """
    start = time.perf_counter()
    N, K = 128, 96
    eta = 0.01
    ref = gamma_uncorrelated(N / K, eta)
    worst_rel = 0.0
    worst_abs = 0.0
    for rho in (0.3, 0.6, 0.9):
        config = SystemConfig.make(N, K, 0.0, kind="exp-even", rho=rho)
        R = [build_correlation(N, rho, t) for t in user_phases(config)]
        gamma = solve_fixed_point(R, eta).gamma
        dev = float(np.max(np.abs(gamma - ref)))
        worst_abs = max(worst_abs, dev)
        worst_rel = max(worst_rel, dev / ref)
    elapsed = time.perf_counter() - start
    report("6", worst_rel <= 1e-8 and elapsed < 120.0,
           f"worst rel dev {worst_rel:.2e} (abs {worst_abs:.2e}), {elapsed:.0f}s")


def test_criterion_7_common_r_bound():
    """Shared-R value never exceeds the uncorrelated one; equality only at R=I."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    all_hold = True
    min_gap = np.inf
    for _ in range(1000):
        n = int(rng.integers(8, 65))
        k = int(rng.integers(4, 33))
        lam = rng.dirichlet(np.ones(n)) * n
        eta = float(10.0 ** (-rng.uniform(-5.0, 30.0) / 10.0))
        chk = check_common_r_bound(lam, K=k, eta=eta)
        all_hold &= chk.holds
        min_gap = min(min_gap, (chk.bound - chk.gamma) / chk.bound)
    ones = check_common_r_bound(np.ones(32), K=16, eta=0.01)
    equality_ok = abs(ones.gamma - ones.bound) <= 1e-10 * ones.bound
    strict_ok = min_gap > 1e-10
    elapsed = time.perf_counter() - start
    report("7", all_hold and equality_ok and strict_ok and elapsed < 30.0,
           f"1000 profiles hold, min rel gap {min_gap:.1e}, identity gap "
           f"{abs(ones.gamma - ones.bound) / ones.bound:.1e}, {elapsed:.1f}s")


def test_criterion_8_derivative_vs_finite_differences():
    """Analytic derivative against central differences away from roots."""
    worst = 0.0
    h = 1e-6
    for eta in (0.01, 0.05, 0.1, 0.2):
        xs = np.arange(1.0, 3.0 + 1e-9, 1e-3)
        x_star = optimal_x_exact(eta, tol=1e-12).x_star
        fd = (objective_f(xs + h, eta) - objective_f(xs - h, eta)) / (2.0 * h)
        an = dfdx(xs, eta)
        away = np.abs(xs - x_star) > 1e-3
        worst = max(worst, float(np.max(np.abs(fd[away] - an[away]) / np.abs(an[away]))))
    report("8", worst < 1e-5, f"max rel err {worst:.2e}")


def test_criterion_9_slnr_route_identity():
    """Leakage-ratio pipeline equals the quadratic form on 100 instances."""
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 65))
        K = int(rng.integers(1, N + 1))
        eta = float(10.0 ** (-rng.uniform(0.0, 30.0) / 10.0))
        H = (rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))) / np.sqrt(2.0)
        quad = compute_metrics(H, eta).slnr
        F = rzf_precode(H, K * eta)
        p = power_control(H, F)
        ratio = slnr_ratio(H, F, p, eta)
        worst = max(worst, float(np.max(np.abs(ratio - quad) / quad)))
    report("9", worst <= 1e-8, f"worst rel diff {worst:.2e}")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    """Two identical sweep-loading CLI runs emit byte-identical CSVs."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--snr-grid", "0:40:81"]
    code_a = main(["sweep-loading", "--out", str(a), *args])
    code_b = main(["sweep-loading", "--out", str(b), *args])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report("10", code_a == EXIT_OK and code_b == EXIT_OK and identical,
           f"{a.stat().st_size} bytes, identical={identical}")
