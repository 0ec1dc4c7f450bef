"""Per-user SLNR/SINR metrics of regularized zero-forcing precoding.

The precoder is ``F = (H H* + beta I)^{-1} H`` at ``beta = K * eta``
(transmit power normalized to 1), with per-user powers that give every user
an equal share of that power. The per-user SLNR collapses to the quadratic
form

    SLNR_k = q_k / (1 - q_k),     q_k = h_k* (H H* + K eta I)^{-1} h_k.

:func:`compute_metrics` reads every metric off one inverse of the smaller
shifted Gram matrix (``linalg.shifted_gram_inverse``). The explicit route
that checks it (``rzf_precode``, ``power_control``, ``sinr_instantaneous``)
lives in :mod:`mimoslnr.oracles`.
"""

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .channel import check_positive_finite
from .linalg import shifted_gram_inverse

__all__ = ["MetricsPerUser", "DegenerateUserError", "compute_metrics"]

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


def _as_channel(H):
    """``H`` as a complex array, checked to be an N x K matrix."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2:
        raise ValueError(f"H must be an N x K matrix, got shape {H.shape}")
    return H


@one_blas_thread
def compute_metrics(H, eta):
    """SLNR, SINR, and squared power scalars for one channel realization.

    One factorization per realization, inverting the smaller shifted Gram
    matrix at ``beta = K * eta``. Every metric follows from the cross gains
    ``C[k, i] = h_k* f_i`` and the norms ``||f_k||^2``. For ``K <= N`` the
    push-through identity ``F = H (H* H + beta I)^{-1}`` gives both without
    the N x K precoder: with the K x K Gram ``G = H* H`` and
    ``W^{-1} = (G + K eta I)^{-1}``,

        C = G W^{-1},   q_k = Re C[k, k],   ||f_k||^2 = [W^{-1} G W^{-1}]_kk.

    ``q_k`` is read off ``G W^{-1}``, not ``I - K eta W^{-1}``, which
    cancels at low SNR. For ``K > N`` the precoder is
    ``F = (H H* + K eta I)^{-1} H`` from the N x N inverse, and ``C = H* F``.
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
        _, A_inv = shifted_gram_inverse(H, K * eta)
        F = A_inv @ H
        C = H.conj().T @ F
        norms_sq = np.sum(np.abs(F) ** 2, axis=0)
    if np.any(norms_sq <= 0.0):
        bad = int(np.flatnonzero(norms_sq <= 0.0)[0])
        raise DegenerateUserError(f"user {bad} has a zero precoding column")
    power_sq = 1.0 / (K * norms_sq)
    # Row k of |C|^2 p^2 holds |h_k* f_i p_i|^2 over all i; the i = k term is the signal.
    weighted = np.abs(C) ** 2 * power_sq
    signal = np.diagonal(weighted)
    sinr = signal / (np.sum(weighted, axis=1) - signal + eta)
    q = np.clip(np.diagonal(C).real, 0.0, _Q_CLAMP)
    return MetricsPerUser(slnr=q / (1.0 - q), sinr=sinr, power_sq=power_sq)
