"""Regularized zero-forcing precoding and per-user SLNR/SINR metrics.

The precoder is ``F = (H H* + beta I)^{-1} H`` with per-user powers chosen
so every user gets an equal share of the total transmit power. It is solved
on the smaller Gram matrix: for ``K <= N`` the push-through identity
``F = H (H* H + beta I)^{-1}`` makes it a K x K system. With the
regularization fixed at ``beta = K * eta`` (transmit power normalized to 1)
the per-user SLNR collapses to the quadratic form

    SLNR_k = q_k / (1 - q_k),     q_k = h_k* (H H* + K eta I)^{-1} h_k.

Every metric needs only the cross gains ``h_k* f_i`` and the norms
``||f_k||^2``. For ``K <= N`` the same identity gives both from the K x K
Gram ``G = H* H`` and ``W^{-1} = (G + K eta I)^{-1}``, so
:func:`compute_metrics` never forms ``F``:

    h_k* f_i = [G W^{-1}]_ki,   q_k = Re [G W^{-1}]_kk,   ||f_k||^2 = [W^{-1} G W^{-1}]_kk.

One factorization per realization serves every user's SLNR, SINR and power.
"""

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .channel import check_positive_finite
from .linalg import shifted_gram_inverse, shifted_gram_solve

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
    return np.sqrt(_power_sq(np.sum(np.abs(F) ** 2, axis=0)))


def _power_sq(norms_sq):
    """``p_k^2 = 1 / (K ||f_k||^2)`` from the squared column norms ``||f_k||^2``."""
    if np.any(norms_sq <= 0.0):
        bad = int(np.flatnonzero(norms_sq <= 0.0)[0])
        raise DegenerateUserError(f"user {bad} has a zero precoding column")
    return 1.0 / (norms_sq.size * norms_sq)


@one_blas_thread
def sinr_instantaneous(H, F, p, eta):
    """Per-user SINR: interference received from the other users' beams.

    ``|h_k* f_k p_k|^2 / (sum_{i != k} |h_k* f_i p_i|^2 + eta)``, the noise
    power being ``eta`` at unit transmit power. Note the index order
    ``h_k* f_i``, transposed relative to the SLNR leakage.
    """
    C = np.asarray(H, dtype=complex).conj().T @ np.asarray(F, dtype=complex)  # h_k* f_i
    return _sinr(C, np.asarray(p, dtype=float) ** 2, eta)


def _sinr(C, power_sq, eta):
    """The SINR from the cross gains ``C[k, i] = h_k* f_i`` and the powers ``p_i^2``."""
    # Row k of |C|^2 p^2 holds |h_k* f_i p_i|^2 over all i; the i = k term is the signal.
    weighted = np.abs(C) ** 2 * power_sq
    signal = np.diagonal(weighted)
    return signal / (np.sum(weighted, axis=1) - signal + eta)


@one_blas_thread
def compute_metrics(H, eta):
    """SLNR, SINR, and squared power scalars for one channel realization.

    One factorization per realization, at ``beta = K * eta``. Every metric
    follows from the cross gains ``C[k, i] = h_k* f_i`` and the norms
    ``||f_k||^2``. For ``K <= N`` neither needs the N x K precoder: with the
    K x K Gram ``G = H* H`` and ``W^{-1} = (G + K eta I)^{-1}``,

        C = G W^{-1},   q_k = Re C[k, k],   ||f_k||^2 = [W^{-1} G W^{-1}]_kk.

    ``q_k`` is read off ``G W^{-1}``, not ``I - K eta W^{-1}``, which
    cancels at low SNR. For ``K > N`` the precoder ``F`` is solved on the
    N x N Gram and ``C = H* F``.
    """
    H = _as_channel(H)
    check_positive_finite(eta, "eta")
    N, K = H.shape
    if K <= N:
        G, W_inv = shifted_gram_inverse(H.conj().T, K * eta)
        C = G @ W_inv
        # sum_j W^{-1}[k, j] C[j, k], with W^{-1}[k, j] = conj(W^{-1}[j, k]).
        norms_sq = np.sum(W_inv.conj() * C, axis=0).real
    else:
        F = rzf_precode(H, K * eta)
        C = H.conj().T @ F
        norms_sq = np.sum(np.abs(F) ** 2, axis=0)
    power_sq = _power_sq(norms_sq)
    q = np.clip(np.diagonal(C).real, 0.0, _Q_CLAMP)
    return MetricsPerUser(slnr=q / (1.0 - q), sinr=_sinr(C, power_sq, eta), power_sq=power_sq)
