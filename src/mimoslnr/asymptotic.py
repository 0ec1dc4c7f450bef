"""Deterministic equivalents of the per-user SLNR in the large-array limit.

As N and K grow at a fixed ratio ``x = N/K``, the random SLNR of user k
concentrates on ``gamma_k``, the unique nonnegative solution of the coupled
fixed-point system

    gamma_k = trace( R_k (sum_j R_j / (1 + gamma_j) + K eta I)^{-1} ).

:func:`solve_fixed_point` iterates it for arbitrary ``R_k``. Special cases
reduce it:

- uncorrelated channels (``R_k = I``) admit the closed form implemented in
  :func:`gamma_uncorrelated`;
- a correlation matrix shared by all users reduces to a scalar fixed point
  over its eigenvalues (:func:`gamma_common_r`), whose value never exceeds
  the uncorrelated one;
- the exponential model ``R_k[m, n] = rho^|m-n| exp(1j (m-n) theta_k)``
  makes ``sum_j R_j / (1 + gamma_j)`` a Hermitian Toeplitz matrix set by N
  lags, so :func:`solve_exponential_fixed_point` runs the same iteration on
  those lags for any phases, without forming the K matrices ``R_k``;
- evenly spaced phases ``theta_k = 2 pi k / K`` put every user on one
  orbit ``R_k = D^k R_0 D^-k`` with ``D = diag(exp(2j pi m / K))``. The
  fixed point is unique, so every ``gamma_k`` is equal, and
  :func:`gamma_exp_even` solves the scalar fixed point of
  :func:`gamma_common_r` over the eigenvalues of the closed-form user
  average :func:`even_mean_correlation`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotri
from scipy.optimize import brentq

from ._blas import one_blas_thread
from .channel import check_count, check_positive_finite, check_rho
from .linalg import herm_eig

__all__ = [
    "AsymptoticSolution",
    "FixedPointError",
    "BoundCheck",
    "solve_fixed_point",
    "solve_exponential_fixed_point",
    "gamma_uncorrelated",
    "gamma_common_r",
    "even_mean_correlation",
    "gamma_exp_even",
    "check_common_r_bound",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000


class FixedPointError(RuntimeError):
    """Fixed-point iteration hit the iteration cap or a non-finite iterate."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class AsymptoticSolution:
    """Deterministic SLNR values with solver diagnostics."""

    gamma: np.ndarray
    iterations: int
    residual: float


@one_blas_thread
def solve_fixed_point(R, eta, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, gamma0=None):
    """Solve the coupled SLNR fixed-point system by Picard iteration.

    Parameters
    ----------
    R : sequence of (N, N) arrays
        Per-user correlation matrices (K of them).
    eta : float
        Inverse SNR; must be positive and finite so the resolvent stays
        definite.
    tol : float
        Positive finite relative stopping tolerance: iteration ends once
        ``max_k |gamma_new_k - gamma_k| <= tol * (1 + max_k gamma_k)``.
    max_iter : int
        Iteration cap; exceeding it, or an iterate that is not finite
        (say from a NaN or inf entry of ``R``), raises
        :class:`FixedPointError`.
    gamma0 : array_like, optional
        Starting point, default all zeros. The solution is unique and
        nonnegative, so any nonnegative start converges to the same values;
        the default matches the monotone-from-below iteration.

    Returns
    -------
    AsymptoticSolution
    """
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")
    Rs = np.asarray(R, dtype=complex)
    if Rs.ndim != 3 or Rs.shape[1] != Rs.shape[2]:
        raise ValueError(f"R must be K square matrices of equal size, got shape {Rs.shape}")
    K, N, _ = Rs.shape
    gamma = np.zeros(K) if gamma0 is None else np.broadcast_to(
        np.asarray(gamma0, dtype=float), (K,)
    ).copy()

    eye = np.eye(N, dtype=complex)
    shift = (K * eta) * eye

    def step(gamma):
        # Exactly Hermitian positive definite: a real-weighted sum of the
        # Hermitian R_k plus a positive multiple of the identity.
        M = np.einsum("k,kij->ij", 1.0 / (1.0 + gamma), Rs) + shift
        Minv = np.linalg.solve(M, eye)
        return np.einsum("kij,ji->k", Rs, Minv).real

    return _picard(step, gamma, tol, max_iter)


@one_blas_thread
def solve_exponential_fixed_point(N, rho, theta, eta, tol=DEFAULT_TOL):
    """Solve the coupled system for exponential profiles with per-user phases.

    The users' matrices are ``R_k[m, n] = rho^|m-n| exp(1j (m-n) theta_k)``.
    The start (all zeros), Picard step, stopping rule, iteration cap and
    errors are those of :func:`solve_fixed_point` on those matrices, but no
    ``R_k`` is formed: ``M = sum_k w_k R_k + K eta I`` with ``w_k = 1/(1 + gamma_k)``
    is Hermitian Toeplitz with lags

        t_d = rho^d sum_k w_k exp(1j d theta_k)   (d >= 0; plus K eta at d = 0),

    built in O(KN) and inverted through its Cholesky factor. With ``s_d``
    the sum of the d-th subdiagonal of ``M^{-1}``,

        gamma_k = Re sum_{d>=0} c_d rho^d exp(-1j d theta_k) s_d,

    where ``c_0 = 1`` and ``c_d = 2`` for ``d > 0`` count both triangles.

    Parameters
    ----------
    N : int
        Antenna count.
    rho : float
        Correlation coefficient in ``[0, 1)``.
    theta : (K,) array_like
        Finite per-user phases in radians.
    eta, tol
        As for :func:`solve_fixed_point`.

    Returns
    -------
    AsymptoticSolution

    Raises
    ------
    FixedPointError
        As :func:`solve_fixed_point`.
    numpy.linalg.LinAlgError
        If ``M`` is not numerically positive definite.
    """
    check_count(N, "N")
    check_rho(rho)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError(f"theta must be a nonempty 1-D array, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")
    K = theta.size
    lags = np.arange(N)
    decay = rho ** lags
    phase = np.exp(1j * np.outer(theta, lags))  # (K, N): exp(1j d theta_k)
    unphase = phase.conj()
    fold = np.where(lags > 0, 2.0, 1.0) * decay
    lag_of = np.abs(np.subtract.outer(lags, lags))
    rows, cols = np.tril_indices(N)
    sub = rows - cols
    tril_flat = rows + N * cols  # column-major offsets of the lower triangle

    def step(gamma):
        t = decay * ((1.0 / (1.0 + gamma)) @ phase)
        t[0] += K * eta
        # t[|m - n|] is M in the lower triangle, the only one zpotrf and
        # zpotri read or write; the transpose hands them column-major memory.
        chol, info = zpotrf(t[lag_of].T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Toeplitz resolvent is not positive definite (zpotrf info {info})"
            )
        entries = zpotri(chol, lower=1, overwrite_c=1)[0].ravel(order="F")[tril_flat]
        s = np.bincount(sub, entries.real, N) + 1j * np.bincount(sub, entries.imag, N)
        return (unphase @ (fold * s)).real

    return _picard(step, np.zeros(K), tol, DEFAULT_MAX_ITER)


def _picard(step, gamma, tol, max_iter):
    """Iterate ``gamma <- step(gamma)`` until ``max|step| <= tol * (1 + max gamma)``."""
    residual = np.inf
    for it in range(1, max_iter + 1):
        gamma_new = step(gamma)
        residual = float(np.max(np.abs(gamma_new - gamma)))
        if not math.isfinite(residual):
            raise FixedPointError(
                f"fixed point iterate is not finite at iteration {it}",
                residual=residual,
                iterations=it,
            )
        threshold = tol * (1.0 + float(np.max(gamma)))
        gamma = gamma_new
        if residual <= threshold:
            return AsymptoticSolution(gamma=gamma, iterations=it, residual=residual)
    raise FixedPointError(
        f"fixed point did not converge within {max_iter} iterations "
        f"(last residual {residual:.3e}, tol {tol:.1e})",
        residual=residual,
        iterations=max_iter,
    )


def gamma_uncorrelated(x, eta):
    """Closed-form deterministic SLNR for uncorrelated channels.

    The scalar fixed point ``gamma = x / (1/(1+gamma) + eta)`` solved by the
    nonnegative root of ``eta g^2 + (eta - x + 1) g - x = 0``:

        gamma = (-(eta - x + 1) + sqrt((eta - x + 1)^2 + 4 eta x)) / (2 eta).

    Accepts scalars or arrays (broadcasting); evaluated through the
    conjugate-pair rewrite when ``eta - x + 1 > 0`` so large-``eta`` inputs
    do not lose precision to cancellation.
    """
    x_arr = np.asarray(x, dtype=float)
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("x must be nonnegative")
    check_positive_finite(eta, "eta")
    b = eta_arr - x_arr + 1.0
    disc = np.sqrt(b * b + 4.0 * eta_arr * x_arr)
    # Where b > 0 the direct numerator -b + disc cancels; multiply through
    # by the conjugate to get the equivalent stable form 2x / (b + disc).
    out = np.where(b > 0.0, 2.0 * x_arr / (b + disc), (disc - b) / (2.0 * eta_arr))
    if out.ndim == 0:
        return float(out)
    return out


def _brent_rtol(tol):
    """Relative tolerance of :func:`gamma_common_r`'s root search."""
    return max(tol, 4.0 * np.finfo(float).eps)


def gamma_common_r(eigenvalues, K, eta, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Scalar deterministic SLNR when every user shares one correlation matrix.

    With eigenvalues ``lam_1..lam_N`` of the shared matrix (trace N), the
    SLNR is the fixed point of

        gamma = T(gamma) = sum_n 1 / (K/(1+gamma) + K*eta/lam_n).

    ``T`` is increasing, ``T(0) > 0`` and ``T(gamma) < sum_n lam_n / (K eta)``,
    so ``[0, sum_n lam_n / (K eta)]`` brackets the one root of
    ``T(gamma) - gamma``. Brent's method finds it within
    ``tol + max(tol, 4 eps) * gamma``, on either side, in a few dozen
    evaluations, also at full load and high SNR, where the contraction
    factor of ``T`` tends to 1 and plain iteration of the map stalls.
    ``max_iter`` caps Brent's iterations.
    Zero eigenvalues contribute zero to the sum (the continuous limit of
    the summand), so rank-deficient inputs do not crash.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("eigenvalues must be a nonempty 1-D array")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    N = lam.size
    spectral = float(np.max(np.abs(lam))) if lam.size else 0.0
    if np.any(lam < -1e-10 * max(spectral, 1.0)):
        raise ValueError(f"eigenvalues must be nonnegative, got min {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    total = float(np.sum(lam))
    if abs(total - N) > 1e-6 * N:
        raise ValueError(f"eigenvalues must sum to N={N} (trace normalization), got {total!r}")
    check_count(K, "K")
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")

    hi = total / (K * eta)
    if not math.isfinite(hi):
        raise FixedPointError(
            f"scalar fixed point overflows: its bracket end sum(eigenvalues)/(K eta) is {hi}",
            residual=math.inf,
            iterations=0,
        )

    def excess(gamma):
        # T(gamma) - gamma, written with u = 1 + gamma as
        # 1 + u (N/K - 1) - (u/K) sum_n eta u / (lam_n + eta u): at full load
        # T(gamma) and gamma agree to the slope 1 - T' of the map, so their
        # difference would lose the root to rounding at high SNR.
        u = 1.0 + gamma
        s = eta * u
        return 1.0 + u * (N / K - 1.0) - (u / K) * float(np.sum(s / (lam + s)))

    gamma, info = brentq(
        excess, 0.0, hi, xtol=tol, rtol=_brent_rtol(tol), maxiter=max_iter,
        full_output=True, disp=False,
    )
    if not info.converged:
        raise FixedPointError(
            f"scalar fixed point did not converge within {max_iter} iterations "
            f"(tol {tol:.1e})",
            residual=abs(excess(gamma)),
            iterations=info.iterations,
        )
    return gamma


def even_mean_correlation(N, K, rho):
    """The user average ``(1/K) sum_k R_k`` of the exp-even profile, in closed form.

    The phases ``theta_k = 2 pi k / K`` sum ``exp(1j d theta_k)`` over k to
    K when K divides the lag ``d = m - n`` and to 0 otherwise, which leaves
    the real Toeplitz matrix with entries ``rho^|d|`` on those lags and 0
    elsewhere. Its trace is N, and it is the identity when ``K >= N``.
    """
    check_count(N, "N")
    check_count(K, "K")
    check_rho(rho)
    d = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
    return np.where(d % K == 0, rho ** d, 0.0)


def gamma_exp_even(N, K, rho, eta, tol=DEFAULT_TOL):
    """Deterministic SLNR shared by every user of the exp-even profile.

    Every ``gamma_k`` is equal (see the module docstring), so averaging the
    system over k leaves the fixed point of :func:`gamma_common_r` over the
    eigenvalues of :func:`even_mean_correlation`: one N x N
    eigendecomposition in place of K dense matrices.
    """
    lam = herm_eig(even_mean_correlation(N, K, rho)).eigenvalues
    return gamma_common_r(lam, K, eta, tol=tol)


class BoundCheck(NamedTuple):
    """Shared-correlation SLNR against its uncorrelated upper bound."""

    gamma: float
    bound: float
    holds: bool


def check_common_r_bound(eigenvalues, K, eta, tol=DEFAULT_TOL):
    """Shared-R SLNR versus the uncorrelated value, with the bound verdict.

    The uncorrelated closed form upper-bounds the shared-R fixed point for
    any trace-normalized eigenvalue profile, with equality exactly when all
    eigenvalues are 1. The verdict allows for rounding (``1e-10``) and for
    the distance from the root at which :func:`gamma_common_r` may stop.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    gamma = gamma_common_r(lam, K, eta, tol=tol)
    bound = gamma_uncorrelated(lam.size / K, eta)
    slack = 1e-10 + tol + _brent_rtol(tol) * gamma
    return BoundCheck(gamma=gamma, bound=bound, holds=bool(gamma <= bound + slack))
