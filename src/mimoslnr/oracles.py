"""Reference routes: slow, independent computations that check the fast ones.

The explicit precoder route (:func:`rzf_precode` and the functions that
take its ``F``) and the leave-one-out SLNR solve the definition on the
N x N Gram with numpy's LU solve and write each metric out. They share no
identity and no numerical routine with ``precoding.compute_metrics``, which
inverts the smaller Gram by Cholesky through scipy's LAPACK: only the input
checks and the exception types.

None of these runs on a sweep's fast path except :func:`brute_force_optimal_x`,
which fills the loading sweep's ``alpha_brute_force`` column. The tests,
the benchmark's output checks and ``mimoslnr selftest`` (the ordered table
:data:`SELFTEST_CHECKS`) all read them from here.
"""

import math
from typing import NamedTuple

import numpy as np

from . import asymptotic
from ._blas import one_blas_thread
from .asymptotic import (
    DEFAULT_TOL, EPS, _anderson, gamma_common_r, gamma_uncorrelated,
)
from .channel import (
    SystemConfig, build_correlation, check_count, check_positive_finite, check_positive_number,
    check_rho, eta_from_snr_db, user_phases,
)
from .linalg import _checked_channel, psd_sqrt
from .loading import dfdx, eta_threshold, lambert_w0, optimal_x_exact
from .precoding import DegenerateUserError, _as_channel, compute_metrics

__all__ = [
    "BoundCheck", "SELFTEST_CHECKS", "solve_fixed_point", "slnr_leave_one_out", "rzf_precode",
    "power_control", "sinr_instantaneous", "slnr_ratio", "check_common_r_bound",
    "even_mean_correlation", "brute_force_optimal_x",
]

# The brute-force oracle's grid on [BRUTE_LO, BRUTE_HI] with spacing
# BRUTE_STEP; the loading sweep echoes the spacing into its CSV metadata.
BRUTE_LO, BRUTE_HI, BRUTE_STEP = 1.0, 1.5, 1e-4


# The grid and its eta-free terms, built once and read-only.
_GRID = BRUTE_LO + BRUTE_STEP * np.arange(int(round((BRUTE_HI - BRUTE_LO) / BRUTE_STEP)) + 1)
_ONE_MINUS_GRID, _TWO_GRID = 1.0 - _GRID, 2.0 * _GRID
for _terms in (_GRID, _ONE_MINUS_GRID, _TWO_GRID):
    _terms.flags.writeable = False


@one_blas_thread
def solve_fixed_point(R, eta, tol=DEFAULT_TOL):
    """Solve the coupled SLNR fixed-point system by accelerated iteration.

    Safeguarded Anderson acceleration of the Picard step (see
    :func:`_anderson`) from all zeros; the solution does not depend on the
    path.

    Parameters
    ----------
    R : sequence of (N, N) arrays
        Per-user correlation matrices (K of them).
    eta : float
        Inverse SNR; must be positive and finite so the resolvent stays
        definite.
    tol : float
        Positive finite relative tolerance: the run stops at a plain step
        once both its residual and ``residual * L / (1 - L)`` are within
        ``tol * (1 + max_k gamma_k)``, or on the rounding floor.

    Returns
    -------
    AsymptoticSolution

    Raises
    ------
    FixedPointError
        After ``DEFAULT_MAX_ITER`` evaluations of the step, or at a plain
        (Picard) iterate that is not finite (say from a NaN or inf entry of
        ``R``).
    """
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")
    Rs = np.asarray(R, dtype=complex)
    if Rs.ndim != 3 or Rs.shape[1] != Rs.shape[2]:
        raise ValueError(f"R must be K square matrices of equal size, got shape {Rs.shape}")
    K, N, _ = Rs.shape
    eye = np.eye(N, dtype=complex)
    shift = (K * eta) * eye

    def step(gamma):
        # Exactly Hermitian positive definite: a real-weighted sum of the
        # Hermitian R_k plus a positive multiple of the identity.
        M = np.einsum("k,kij->ij", 1.0 / (1.0 + gamma), Rs) + shift
        Minv = np.linalg.solve(M, eye)
        return np.einsum("kij,ji->k", Rs, Minv).real

    return _anderson(step, np.zeros(K), tol, asymptotic.DEFAULT_MAX_ITER)


def _shifted_gram_solve(H, beta, B):
    """``(H H* + beta I)^{-1} B`` by numpy's LU solve of the N x N system.

    A non-finite ``H`` or ``B``, or a ``beta`` that is not a positive finite
    real number, raises ``ValueError``; a shifted Gram matrix that overflows
    or is singular raises :class:`numpy.linalg.LinAlgError`.
    """
    H = _checked_channel(H, beta)
    if not np.all(np.isfinite(B)):
        raise ValueError("B must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        W = H @ H.conj().T + beta * np.eye(H.shape[0])
    if not np.all(np.isfinite(W)):
        raise np.linalg.LinAlgError("shifted Gram matrix is not finite")
    return np.linalg.solve(W, B)


@one_blas_thread
def slnr_leave_one_out(H, eta):
    """SLNR by K explicit leave-one-out solves; the slow oracle route.

    Computes ``h_k* (sum_{i != k} h_i h_i* + K eta I)^{-1} h_k`` directly
    for every user.
    """
    H = _as_channel(H)
    check_positive_finite(eta, "eta")
    K = H.shape[1]
    out = np.empty(K)
    for k in range(K):
        hk = H[:, k]
        out[k] = np.vdot(hk, _shifted_gram_solve(np.delete(H, k, axis=1), K * eta, hk)).real
    return out


@one_blas_thread
def rzf_precode(H, beta):
    """Columns ``f_k = (H H* + beta I)^{-1} h_k`` for every user, by the definition.

    One solve on the N x N shifted Gram matrix for every shape. For
    ``K < N`` that Gram is rank deficient, so the shift must not vanish
    against it.
    """
    return _shifted_gram_solve(H, beta, H)


def power_control(H, F):
    """Equal per-user power split: ``p_k = sqrt(1 / (K ||f_k||^2))``.

    Guarantees ``sum_k p_k^2 ||f_k||^2 == 1``, the normalized total transmit
    power, with each user contributing ``1 / K``. A zero column of ``F``
    raises :class:`~mimoslnr.precoding.DegenerateUserError`.
    """
    H = np.asarray(H, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if H.shape != F.shape:
        raise ValueError(f"F has shape {F.shape}, expected {H.shape} to match H")
    norms_sq = np.sum(np.abs(F) ** 2, axis=0)
    zero = np.flatnonzero(norms_sq == 0.0)
    if zero.size:
        raise DegenerateUserError(f"user {zero[0]} has a zero precoding column")
    return np.sqrt(1.0 / (F.shape[1] * norms_sq))


@one_blas_thread
def sinr_instantaneous(H, F, p, eta):
    """Per-user SINR: interference received from the other users' beams.

    ``|h_k* f_k p_k|^2 / (sum_{i != k} |h_k* f_i p_i|^2 + eta)``, the noise
    power being ``eta`` at unit transmit power. Note the index order
    ``h_k* f_i``, transposed relative to the SLNR leakage.
    """
    C = np.asarray(H, dtype=complex).conj().T @ np.asarray(F, dtype=complex)  # h_k* f_i
    received = np.abs(C) ** 2 * np.asarray(p, dtype=float) ** 2  # |h_k* f_i p_i|^2
    signal = received.diagonal().copy()
    np.fill_diagonal(received, 0.0)
    return signal / (np.sum(received, axis=1) + eta)


@one_blas_thread
def slnr_ratio(H, F, p, eta):
    """Per-user SLNR as a plain leakage ratio for any precoder.

    ``|h_k* f_k p_k|^2 / (sum_{i != k} |h_i* f_k p_k|^2 + eta)``; the noise
    power is ``eta`` at unit transmit power, and the leakage runs over user
    k's own beam.
    """
    G = np.asarray(H, dtype=complex).conj().T @ np.asarray(F, dtype=complex)  # h_k* f_i
    p = np.asarray(p, dtype=float)
    sig = np.abs(np.diag(G)) ** 2 * p**2
    # Column k of |G|^2 holds |h_i* f_k|^2 over all i; drop the i = k term.
    leak_cols = np.sum(np.abs(G) ** 2, axis=0) - np.abs(np.diag(G)) ** 2
    return sig / (p**2 * leak_cols + eta)


class BoundCheck(NamedTuple):
    """Shared-correlation SLNR against its uncorrelated upper bound."""

    gamma: float
    bound: float
    holds: bool


def check_common_r_bound(eigenvalues, K, eta):
    """Shared-R SLNR versus the uncorrelated value, with the bound verdict.

    The uncorrelated closed form upper-bounds the shared-R fixed point for
    any trace-normalized eigenvalue profile, with equality exactly when all
    eigenvalues are 1. The verdict allows for rounding (``1e-10``) and for
    the width of the bracket in which :func:`gamma_common_r`, run at
    ``DEFAULT_TOL``, may stop around the root.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    gamma = gamma_common_r(lam, K, eta)
    bound = gamma_uncorrelated(lam.size / K, eta)
    slack = 1e-10 + DEFAULT_TOL + max(DEFAULT_TOL, 4.0 * EPS) * gamma
    return BoundCheck(gamma=gamma, bound=bound, holds=bool(gamma <= bound + slack))


def even_mean_correlation(N, K, rho):
    """The user average ``(1/K) sum_k R_k`` of the exp-even profile, as a dense N x N matrix.

    The phases ``theta_k = 2 pi k / K`` sum ``exp(1j d theta_k)`` over k to
    K when K divides the lag ``d = m - n`` and to 0 otherwise, which leaves
    the real Toeplitz matrix with entries ``rho^|d|`` on those lags and 0
    elsewhere. Its trace is N, and it is the identity when ``K >= N``.
    ``asymptotic.gamma_exp_even`` takes its eigenvalues from KMS blocks
    without forming it.
    """
    check_count(N, "N")
    check_count(K, "K")
    check_rho(rho)
    d = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
    return np.where(d % K == 0, rho ** d, 0.0)


def _grid_objective(eta):
    """``objective_f(grid, eta)`` on the oracle's grid, bit for bit.

    The same operations as :func:`gamma_uncorrelated`'s array form, with
    each of its two branches evaluated only where it is taken.
    ``b = eta + (1 - x)`` is non-increasing along the grid, so ``b > 0``
    holds on a prefix.
    """
    b = eta + _ONE_MINUS_GRID
    split = int(np.count_nonzero(b > 0.0))
    disc = b * b
    disc += _GRID * (4.0 * eta)
    np.sqrt(disc, out=disc)
    # gamma into b: 2x / (b + disc) on the prefix, (disc - b) / (2 eta) after it.
    head, tail = slice(None, split), slice(split, None)
    np.add(b[head], disc[head], out=b[head])
    np.divide(_TWO_GRID[head], b[head], out=b[head])
    np.subtract(disc[tail], b[tail], out=b[tail])
    np.divide(b[tail], 2.0 * eta, out=b[tail])
    np.log1p(b, out=b)
    b /= _GRID
    return b


def brute_force_optimal_x(eta):
    """Grid-search maximizer of the per-antenna rate; the independent oracle.

    Exhaustively evaluates the objective on ``[BRUTE_LO, BRUTE_HI]`` in
    steps of ``BRUTE_STEP`` and returns the best grid point, with no
    derivative information and no assumption of a single maximum. The grid
    is built once, at import.
    """
    eta = float(check_positive_number(eta, "eta"))
    return float(_GRID[int(np.argmax(_grid_objective(eta)))])


# The selftest's checks. Each takes the run's one random stream and raises on
# a failure; the table's order fixes what each check draws from it.


def _closed_form_vs_fixed_point(rng):
    for x, snr_db in [(1.0, 0.0), (2.0, 10.0), (4.0, 25.0)]:
        eta = eta_from_snr_db(snr_db)
        K = 8
        N = int(x * K)
        R = [np.eye(N, dtype=complex)] * K
        gamma = solve_fixed_point(R, eta).gamma
        ref = gamma_uncorrelated(x, eta)
        assert np.max(np.abs(gamma - ref)) <= 1e-10 * ref


def _threshold_residual(rng):
    eta_o = eta_threshold()
    assert abs(dfdx(1.0, eta_o)) < 1e-12


def _lambert_residuals(rng):
    for z in [0.0, 0.5, 1.0, math.e, 50.0, -0.25, -1.0 / math.e + 1e-9]:
        w = lambert_w0(z)
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))


def _psd_sqrt_roundtrip(rng):
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    R = A @ A.conj().T
    S = psd_sqrt(R)
    assert np.linalg.norm(S @ S - R) <= 1e-9 * np.linalg.norm(R)


def _slnr_route_equivalence(rng):
    H = (rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))) / np.sqrt(2)
    fast = compute_metrics(H, 0.01).slnr
    slow = slnr_leave_one_out(H, 0.01)
    assert np.max(np.abs(fast - slow) / slow) <= 1e-8


def _even_theta_sum_identity(rng):
    config = SystemConfig.make(8, 8, 0.0, kind="exp-even")
    total = np.sum([build_correlation(8, 0.5, t) for t in user_phases(config)], axis=0)
    assert np.max(np.abs(total - 8.0 * np.eye(8))) <= 1e-9


def _exact_vs_brute_force(rng):
    for eta in [0.01, 0.05, 0.2]:
        x_exact = optimal_x_exact(eta).x_star
        x_brute = brute_force_optimal_x(eta)
        assert abs(x_exact - x_brute) <= 1e-3


def _common_r_bound(rng):
    for _ in range(50):
        lam = rng.dirichlet(np.ones(16)) * 16
        check = check_common_r_bound(lam, K=8, eta=0.05)
        assert check.holds


SELFTEST_CHECKS = (
    ("closed-form vs fixed point", _closed_form_vs_fixed_point),
    ("threshold derivative residual", _threshold_residual),
    ("lambert-w residuals", _lambert_residuals),
    ("psd sqrt roundtrip", _psd_sqrt_roundtrip),
    ("slnr route equivalence", _slnr_route_equivalence),
    ("even-theta sum identity", _even_theta_sum_identity),
    ("exact vs brute force", _exact_vs_brute_force),
    ("common-R upper bound", _common_r_bound),
)
