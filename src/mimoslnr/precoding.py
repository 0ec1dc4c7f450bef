"""Regularized zero-forcing precoding and per-user SLNR/SINR metrics.

The precoder is ``F = (H H* + beta I)^{-1} H`` with per-user powers chosen
so every user gets an equal share of the total transmit power. It is solved
on the smaller Gram matrix: for ``K <= N`` the push-through identity
``F = H (H* H + beta I)^{-1}`` makes it a K x K system. With the
regularization fixed at ``beta = K * eta`` (transmit power normalized to 1)
the per-user SLNR collapses to the quadratic form

    SLNR_k = q_k / (1 - q_k),     q_k = h_k* (H H* + K eta I)^{-1} h_k,

so ``q_k = Re(h_k* f_k)`` reads off the precoder itself: one factorization
per realization serves the precoder and every user's SLNR. The direct
leave-one-out evaluation and the plain leakage ratio are kept alongside as
independent oracles.
"""

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .channel import check_positive_finite
from .linalg import shifted_gram_solve

__all__ = [
    "MetricsPerUser",
    "DegenerateUserError",
    "rzf_precode",
    "power_control",
    "slnr_leave_one_out",
    "slnr_ratio",
    "sinr_instantaneous",
    "compute_metrics",
]

# q_k < 1 analytically but can round to 1; keep the ratio finite.
_Q_CLAMP = 1.0 - 1e-12


class DegenerateUserError(ValueError):
    """A user's precoding column has zero norm (only possible for h_k = 0)."""


@dataclass
class MetricsPerUser:
    """Per-user instantaneous metrics for one channel realization."""

    slnr: np.ndarray
    sinr: np.ndarray
    power_sq: np.ndarray


def rzf_precode(H, beta):
    """Columns ``f_k = (H H* + beta I)^{-1} h_k`` for every user.

    Factorizes the smaller Gram matrix. For ``K <= N`` the push-through
    identity ``(H H* + beta I)^{-1} H = H (H* H + beta I)^{-1}`` turns the
    N x N system into a K x K one, which is also full rank when ``H`` is,
    so the shift may vanish against it. For ``K > N`` the N x N Gram is the
    smaller, full-rank one and is solved directly.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim == 2 and H.shape[1] <= H.shape[0]:
        Hh = H.conj().T
        return shifted_gram_solve(Hh, beta, Hh).conj().T
    return shifted_gram_solve(H, beta, H)


def power_control(H, F):
    """Equal per-user power split: ``p_k = sqrt(1 / (K ||f_k||^2))``.

    Guarantees ``sum_k p_k^2 ||f_k||^2 == 1``, the normalized total transmit
    power, with each user contributing ``1 / K``.
    """
    H = np.asarray(H, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if H.shape != F.shape:
        raise ValueError(f"F has shape {F.shape}, expected {H.shape} to match H")
    K = F.shape[1]
    norms_sq = np.sum(np.abs(F) ** 2, axis=0)
    if np.any(norms_sq == 0.0):
        bad = int(np.flatnonzero(norms_sq == 0.0)[0])
        raise DegenerateUserError(f"user {bad} has a zero precoding column")
    return np.sqrt(1.0 / (K * norms_sq))


def _slnr_from_precoder(H, F):
    """SLNR lemma ``q_k / (1 - q_k)`` with ``q_k = Re(h_k* f_k)``.

    Valid for ``F = rzf_precode(H, K * eta)``, whose columns are the
    resolvent ``(H H* + K eta I)^{-1}`` applied to each ``h_k``.
    """
    q = np.sum(H.conj() * F, axis=0).real
    q = np.clip(q, 0.0, _Q_CLAMP)
    return q / (1.0 - q)


def slnr_leave_one_out(H, eta):
    """SLNR by K explicit leave-one-out solves; the slow oracle route.

    Computes ``h_k* (sum_{i != k} h_i h_i* + K eta I)^{-1} h_k`` directly
    for every user.
    """
    H = np.asarray(H, dtype=complex)
    check_positive_finite(eta, "eta")
    K = H.shape[1]
    out = np.empty(K)
    for k in range(K):
        Hk = np.delete(H, k, axis=1)
        hk = H[:, k]
        x = shifted_gram_solve(Hk, K * eta, hk)
        out[k] = np.vdot(hk, x).real
    return out


@one_blas_thread
def _cross_gram(H, F):
    """G[k, i] = h_k* f_i."""
    return H.conj().T @ F


def slnr_ratio(H, F, p, eta):
    """Per-user SLNR as a plain leakage ratio for any precoder.

    ``|h_k* f_k p_k|^2 / (sum_{i != k} |h_i* f_k p_k|^2 + eta)``; the noise
    power is ``eta`` at unit transmit power, and the leakage runs over user
    k's own beam.
    """
    G = _cross_gram(np.asarray(H, dtype=complex), np.asarray(F, dtype=complex))
    p = np.asarray(p, dtype=float)
    sig = np.abs(np.diag(G)) ** 2 * p**2
    # Column k of |G|^2 holds |h_i* f_k|^2 over all i; drop the i = k term.
    leak_cols = np.sum(np.abs(G) ** 2, axis=0) - np.abs(np.diag(G)) ** 2
    return sig / (p**2 * leak_cols + eta)


def sinr_instantaneous(H, F, p, eta):
    """Per-user SINR: interference received from the other users' beams.

    ``|h_k* f_k p_k|^2 / (sum_{i != k} |h_k* f_i p_i|^2 + eta)``, the noise
    power being ``eta`` at unit transmit power. Note the index order
    ``h_k* f_i``, transposed relative to the SLNR leakage.
    """
    G = _cross_gram(np.asarray(H, dtype=complex), np.asarray(F, dtype=complex))
    p = np.asarray(p, dtype=float)
    sig = np.abs(np.diag(G)) ** 2 * p**2
    # Row k of |G p|^2 holds |h_k* f_i p_i|^2 over all i; drop the i = k term.
    weighted = np.abs(G) ** 2 * p**2
    interference = np.sum(weighted, axis=1) - np.diag(weighted)
    return sig / (interference + eta)


@one_blas_thread
def compute_metrics(H, eta):
    """SLNR, SINR, and squared power scalars for one channel realization.

    One factorization per realization: the precoder at ``beta = K * eta``
    also yields the SLNR quadratic forms.
    """
    H = np.asarray(H, dtype=complex)
    check_positive_finite(eta, "eta")
    F = rzf_precode(H, H.shape[1] * eta)
    p = power_control(H, F)
    return MetricsPerUser(
        slnr=_slnr_from_precoder(H, F),
        sinr=sinr_instantaneous(H, F, p, eta),
        power_sq=p**2,
    )
