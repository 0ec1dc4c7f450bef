"""Experiment harness: concentration CDFs, correlation sweeps, loading sweeps.

Each runner returns an :class:`ExperimentResult` whose metadata echoes the
full configuration, so a result (or the CSV written from it) can be
re-produced bit-identically. CSV output is deterministic: float columns are
rendered with shortest round-trip ``repr`` and the metadata comments never
include wall-clock information. Memory stays bounded as ``trials * K``
grows: the CDF runner pools its samples in two preallocated arrays and
sorts them in place, and :func:`write_csv` formats and writes
``CSV_BLOCK_ROWS`` data rows at a time.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._blas import one_blas_thread
from .asymptotic import (
    DEFAULT_TOL, _phase_table, _solve_toeplitz, gamma_exp_common, gamma_exp_even,
    gamma_uncorrelated,
)
from .channel import (
    SystemConfig, _is_number, check_count, check_index, check_positive_finite, check_rho,
    check_vector, eta_from_snr_db, sample_channel, trial_rng, user_phases,
)
from .loading import (
    CLAMPED_AT_ONE, LOADING_TOL, eta_threshold, optimal_x_exact, optimal_x_high_snr,
    optimal_x_low_snr,
)
from .oracles import BRUTE_STEP, brute_force_optimal_x
from .precoding import compute_metrics

__all__ = [
    "ExperimentResult",
    "run_cdf_experiment",
    "run_correlation_sweep",
    "run_loading_sweep",
    "write_csv",
]

# Data rows that write_csv formats and writes at a time; its memory holds
# one block of row text, whatever the row count.
CSV_BLOCK_ROWS = 256

# Bytes of the channel stack that run_cdf_experiment passes to
# compute_metrics at once: 4 trials at 64 x 32.
CDF_BLOCK_BYTES = 1 << 17


@dataclass
class ExperimentResult:
    """Named columns plus the metadata needed to reproduce them."""

    name: str
    columns: dict
    metadata: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def __post_init__(self):
        lengths = {key: len(col) for key, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns must have equal length, got {lengths}")


def _plotting_positions(n):
    """The CDF levels ``i/(n+1)``, ``i = 1..n``, of n sorted samples, as one array.

    The positions stay strictly inside (0, 1), avoiding degenerate endpoint
    levels. The float ``arange`` holds the integers exactly, so dividing it
    in place gives the bits of ``arange(1, n + 1) / (n + 1)``.
    """
    levels = np.arange(1.0, n + 1.0)
    levels /= n + 1.0
    return levels


@one_blas_thread
def run_cdf_experiment(config):
    """Pool instantaneous SLNR/SINR over users and trials against the limit.

    Requires the identity profile (the deterministic reference is the
    uncorrelated closed form). Emits both empirical CDFs on a shared level
    grid plus the asymptotic value as a constant series; as N grows at fixed
    K/N, both CDFs tighten around that constant.

    The trials are drawn in trial order and go through ``compute_metrics``
    in blocks: one stack of ``CDF_BLOCK_BYTES // (16 N K)`` channels (at
    least one) is filled, one trial at a time, and reused for every block,
    so the per-call overhead is paid once per block and the samples are
    those of one call per trial, bit for bit. The samples go, in trial
    order, into two preallocated arrays of ``trials * K`` entries, which are
    then sorted in place and become the result's columns: the run holds
    those two arrays, the levels, the constant column and one block's
    channels and metrics, and no per-trial or sorted copies.
    """
    if config.kind != "identity":
        raise ValueError("CDF experiment is defined for the identity profile")
    start = time.perf_counter()
    eta = config.eta
    N, K = config.N, config.K
    gamma = gamma_uncorrelated(N / K, eta)
    slnr_pool = np.empty(config.trials * K)
    sinr_pool = np.empty(config.trials * K)
    block = min(max(CDF_BLOCK_BYTES // (16 * N * K), 1), config.trials)
    stack = np.empty((block, N, K), dtype=complex)
    for lo in range(0, config.trials, block):
        hi = min(lo + block, config.trials)
        for trial in range(lo, hi):
            stack[trial - lo] = sample_channel(config, trial).H
        metrics = compute_metrics(stack[:hi - lo], eta)
        slnr_pool[lo * K:hi * K] = metrics.slnr.ravel()
        sinr_pool[lo * K:hi * K] = metrics.sinr.ravel()
    slnr_pool.sort()
    sinr_pool.sort()
    columns = {
        "cdf_level": _plotting_positions(slnr_pool.size),
        "slnr": slnr_pool,
        "sinr": sinr_pool,
        "gamma_asymptotic": np.full(slnr_pool.size, gamma),
    }
    metadata = _config_metadata(config)
    return ExperimentResult(
        name="cdf",
        columns=columns,
        metadata=metadata,
        wall_seconds=time.perf_counter() - start,
    )


@one_blas_thread
def run_correlation_sweep(
    N, alpha, snr_db, rho_grid, trials_for_random_theta=20, seed=0, tol=DEFAULT_TOL
):
    """Asymptotic SLNR versus correlation coefficient for three phase schemes.

    For each ``rho``: the evenly spaced phases (one scalar fixed point,
    :func:`gamma_exp_even`, since every user shares one value), the random
    phases (the Toeplitz fixed point :func:`solve_exponential_fixed_point`,
    per-user gammas averaged over users; additionally averaged over
    ``trials_for_random_theta`` independent phase draws, with the
    single-draw average reported in its own column), and the common phase
    (:func:`gamma_exp_common`, the scalar fixed point over the shared
    eigenvalues, which do not depend on the phase itself). The uncorrelated
    value rides along as the reference line.

    The random-phase column is a continuation in ``rho``. Draw ``d``'s
    phases come once from ``trial_rng(seed, d)``, before the ``rho`` loop,
    and so does their table ``exp(1j d theta_k)``, which ``rho`` leaves alone.
    The draw's first solve starts at the solver's default, the uncorrelated
    closed form, exact at ``rho = 0`` (where ``R_k = I``), and each later
    solve at the draw's gammas from the previous ``rho``, in grid order.
    The fixed point is unique, so the start moves the answer only within
    the tolerance.
    """
    start = time.perf_counter()
    check_count(N, "N")
    check_index(seed, "seed")
    # In Python floats, alpha * N past the largest double is inf, with no numpy warning.
    if not _is_number(alpha) or not 0.0 < float(alpha) * float(N) < math.inf:
        raise ValueError(
            f"alpha must be a positive finite number with alpha * N finite, got {alpha!r}"
        )
    K = check_count(int(round(alpha * N)), "round(alpha * N)")
    # The users' K x N complex phase table has to fit numpy's index range.
    if K * N * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ValueError(
            f"alpha gives K = round(alpha * N) = {float(K):.3g} users, whose {N}-column "
            f"phase table is past numpy's index range, got {alpha!r}"
        )
    check_count(trials_for_random_theta, "trials_for_random_theta")
    eta = eta_from_snr_db(snr_db)
    rho_grid = check_vector(rho_grid, "rho_grid")
    # Every rho is checked before the first solve, so a bad one fails fast.
    try:
        for rho in rho_grid:
            check_rho(rho)
    except ValueError as exc:
        raise ValueError(f"rho_grid: {exc}") from None
    check_positive_finite(tol, "tol")
    random_config = SystemConfig.make(N, K, snr_db, kind="exp-random")
    ref = gamma_uncorrelated(N / K, eta)

    even_col = np.empty(rho_grid.size)
    random_avg_col = np.empty(rho_grid.size)
    random_single_col = np.empty(rho_grid.size)
    common_col = np.empty(rho_grid.size)
    phases = [
        _phase_table(N, user_phases(random_config, trial_rng(seed, draw)))
        for draw in range(trials_for_random_theta)
    ]
    gammas = [None] * trials_for_random_theta

    for i, rho in enumerate(rho_grid):
        even_col[i] = gamma_exp_even(N, K, rho, eta, tol=tol)

        draw_means = np.empty(trials_for_random_theta)
        for draw, phase in enumerate(phases):
            sol = _solve_toeplitz(phase, rho, eta, tol, gammas[draw])
            gammas[draw] = sol.gamma
            draw_means[draw] = float(np.mean(sol.gamma))
        random_avg_col[i] = float(np.mean(draw_means))
        random_single_col[i] = draw_means[0]

        common_col[i] = gamma_exp_common(N, K, rho, eta, tol=tol)

    columns = {
        "rho": rho_grid.copy(),
        "gamma_exp_even": even_col,
        "gamma_exp_random_avg": random_avg_col,
        "gamma_exp_random_single_draw": random_single_col,
        "gamma_exp_common": common_col,
        "gamma_uncorrelated": np.full(rho_grid.size, ref),
    }
    metadata = {
        "n": N,
        "k": K,
        "alpha": alpha,
        "snr_db": snr_db,
        "theta_draws": trials_for_random_theta,
        "seed": seed,
        "tol": tol,
    }
    return ExperimentResult(
        name="correlation",
        columns=columns,
        metadata=metadata,
        wall_seconds=time.perf_counter() - start,
    )


def run_loading_sweep(snr_db_grid):
    """Optimal loading fraction versus SNR, with oracle and approximations.

    Emits the exact optimizer, the brute-force grid search, and both
    closed-form approximations (each only below the threshold ``eta_o``,
    NaN elsewhere). The ``clamped`` column flags SNR points where the
    optimum sits at the ``x = 1`` boundary. The exact optimizer runs at
    ``LOADING_TOL``.
    """
    start = time.perf_counter()
    snr_db_grid = check_vector(snr_db_grid, "snr_db_grid")
    etas = eta_from_snr_db(snr_db_grid)
    eta_o = eta_threshold()

    x_exact = np.empty(snr_db_grid.size)
    clamped = np.empty(snr_db_grid.size)
    alpha_brute = np.empty(snr_db_grid.size)
    alpha_low = np.full(snr_db_grid.size, np.nan)
    alpha_high = np.full(snr_db_grid.size, np.nan)

    for i, eta in enumerate(etas):
        sol = optimal_x_exact(eta)
        x_exact[i] = sol.x_star
        clamped[i] = 1.0 if sol.method == CLAMPED_AT_ONE else 0.0
        alpha_brute[i] = 1.0 / brute_force_optimal_x(eta)
        if eta < eta_o:
            alpha_low[i] = 1.0 / optimal_x_low_snr(eta)
            alpha_high[i] = 1.0 / optimal_x_high_snr(eta)

    columns = {
        "snr_db": snr_db_grid.copy(),
        "eta": etas,
        "alpha_exact": 1.0 / x_exact,
        "alpha_brute_force": alpha_brute,
        "alpha_low_snr_approx": alpha_low,
        "alpha_high_snr_approx": alpha_high,
        "x_exact": x_exact,
        "clamped": clamped,
    }
    metadata = {
        "snr_db_min": float(snr_db_grid.min()),
        "snr_db_max": float(snr_db_grid.max()),
        "points": int(snr_db_grid.size),
        "tol": LOADING_TOL,
        "brute_step": BRUTE_STEP,
    }
    return ExperimentResult(
        name="loading",
        columns=columns,
        metadata=metadata,
        wall_seconds=time.perf_counter() - start,
    )


def _config_metadata(config):
    return {
        "n": config.N,
        "k": config.K,
        "snr_db": config.snr_db,
        "profile": config.kind,
        "rho": config.rho,
        "theta": config.theta,
        "trials": config.trials,
        "seed": config.seed,
    }


def _format_value(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(col):
    """The strings :func:`_format_value` gives each entry, a float column at once."""
    if col.dtype.kind == "f":
        # Python floats, so ``repr`` is the shortest round-trip form that
        # ``repr(float(value))`` gives; longdouble rounds the same way.
        col = col.astype(float, copy=False)
        # A column of one value (``gamma_asymptotic``) is formatted once. The
        # bits are compared, not the values, so 0.0 and -0.0 keep their signs.
        bits = col.view(np.int64)
        if bits.size and np.all(bits == bits[0]):
            return [repr(float(col[0]))] * col.size
        return list(map(repr, col.tolist()))
    return list(map(_format_value, col))


def write_csv(result, path):
    """Write an :class:`ExperimentResult` as CSV.

    Layout: ``#``-prefixed metadata comment lines (experiment name, package
    version, then the config echo in insertion order), one header row, one
    data row per sample. Identical results produce byte-identical files.

    The metadata lines and the header are built and checked before the file
    is opened: a name, key, value or column name whose text holds a line
    break raises ``ValueError`` and writes nothing. The data rows are then
    formatted and written ``CSV_BLOCK_ROWS`` at a time, so the text in
    memory is one block whatever the row count. An I/O error mid-write
    leaves a partial file.
    """
    names = list(result.columns)
    cols = [np.asarray(result.columns[name]) for name in names]
    lines = [f"# experiment = {result.name}", f"# version = {__version__}"]
    for key, value in result.metadata.items():
        lines.append(f"# {key} = {_format_value(value)}")
    lines.append(",".join(names))
    for line in lines:
        if "\n" in line or "\r" in line:
            raise ValueError(f"CSV header line holds a line break: {line!r}")
    # Rows as zip counts them: the shortest column's length.
    rows = min(map(len, cols), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            block = [_format_column(col[lo:lo + CSV_BLOCK_ROWS]) for col in cols]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")
