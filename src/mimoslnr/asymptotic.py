"""Deterministic equivalents of the per-user SLNR in the large-array limit.

As N and K grow at a fixed ratio ``x = N/K``, the random SLNR of user k
concentrates on ``gamma_k``, the unique nonnegative solution of the coupled
fixed-point system

    gamma_k = trace( R_k (sum_j R_j / (1 + gamma_j) + K eta I)^{-1} ).

Two special cases reduce to scalars: uncorrelated channels (``R_k = I``)
admit the closed form implemented in :func:`gamma_uncorrelated`, and a
correlation matrix shared by all users reduces to a scalar fixed point over
its eigenvalues (:func:`gamma_common_r`), whose value never exceeds the
uncorrelated one.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import one_blas_thread
from .channel import check_count, check_positive_finite

__all__ = [
    "AsymptoticSolution",
    "FixedPointError",
    "BoundCheck",
    "solve_fixed_point",
    "gamma_uncorrelated",
    "gamma_common_r",
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
    residual = np.inf
    for it in range(1, max_iter + 1):
        # Exactly Hermitian positive definite: a real-weighted sum of the
        # Hermitian R_k plus a positive multiple of the identity.
        M = np.einsum("k,kij->ij", 1.0 / (1.0 + gamma), Rs) + shift
        Minv = np.linalg.solve(M, eye)
        gamma_new = np.einsum("kij,ji->k", Rs, Minv).real
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


def gamma_common_r(eigenvalues, K, eta, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Scalar deterministic SLNR when every user shares one correlation matrix.

    With eigenvalues ``lam_1..lam_N`` of the shared matrix (trace N), the
    SLNR is the fixed point of

        gamma = sum_n 1 / (K/(1+gamma) + K*eta/lam_n),

    iterated from zero. Zero eigenvalues contribute zero to the sum (the
    continuous limit of the summand), so rank-deficient inputs do not crash.
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

    pos = lam[lam > 0.0]
    gamma = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        gamma_new = float(np.sum(1.0 / (K / (1.0 + gamma) + K * eta / pos)))
        residual = abs(gamma_new - gamma)
        threshold = tol * (1.0 + gamma)
        gamma = gamma_new
        if residual <= threshold:
            return gamma
    raise FixedPointError(
        f"scalar fixed point did not converge within {max_iter} iterations "
        f"(last residual {residual:.3e}, tol {tol:.1e})",
        residual=residual,
        iterations=max_iter,
    )


class BoundCheck(NamedTuple):
    """Shared-correlation SLNR against its uncorrelated upper bound."""

    gamma: float
    bound: float
    holds: bool


def check_common_r_bound(eigenvalues, K, eta, tol=DEFAULT_TOL):
    """Shared-R SLNR versus the uncorrelated value, with the bound verdict.

    The uncorrelated closed form upper-bounds the shared-R fixed point for
    any trace-normalized eigenvalue profile, with equality exactly when all
    eigenvalues are 1.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    gamma = gamma_common_r(lam, K, eta, tol=tol)
    bound = gamma_uncorrelated(lam.size / K, eta)
    return BoundCheck(gamma=gamma, bound=bound, holds=bool(gamma <= bound + 1e-10))
