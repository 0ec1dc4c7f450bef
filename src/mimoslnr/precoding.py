"""Regularized zero-forcing precoding and per-user SLNR/SINR metrics.

The precoder is ``F = (H H* + beta I)^{-1} H`` with per-user powers chosen
so every user gets an equal share of the total transmit power. It is solved
on the smaller Gram matrix: for ``K <= N`` the push-through identity
``F = H (H* H + beta I)^{-1}`` makes it a K x K system. With the
regularization fixed at ``beta = K * eta`` (transmit power normalized to 1)
the per-user SLNR collapses to the quadratic form

    SLNR_k = q_k / (1 - q_k),     q_k = h_k* (H H* + K eta I)^{-1} h_k,

so ``q_k = Re(h_k* f_k)`` reads off the precoder itself: one factorization
per realization serves the precoder and every user's SLNR.
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


def _as_channel(H):
    """``H`` as a complex array, checked to be an N x K matrix."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2:
        raise ValueError(f"H must be an N x K matrix, got shape {H.shape}")
    return H


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


@one_blas_thread
def sinr_instantaneous(H, F, p, eta):
    """Per-user SINR: interference received from the other users' beams.

    ``|h_k* f_k p_k|^2 / (sum_{i != k} |h_k* f_i p_i|^2 + eta)``, the noise
    power being ``eta`` at unit transmit power. Note the index order
    ``h_k* f_i``, transposed relative to the SLNR leakage.
    """
    G = np.asarray(H, dtype=complex).conj().T @ np.asarray(F, dtype=complex)  # h_k* f_i
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
    H = _as_channel(H)
    check_positive_finite(eta, "eta")
    F = rzf_precode(H, H.shape[1] * eta)
    p = power_control(H, F)
    return MetricsPerUser(
        slnr=_slnr_from_precoder(H, F),
        sinr=sinr_instantaneous(H, F, p, eta),
        power_sq=p**2,
    )
