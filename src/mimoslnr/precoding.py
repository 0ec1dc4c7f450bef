"""Per-user SLNR/SINR metrics of regularized zero-forcing precoding.

The precoder is ``F = (H H* + beta I)^{-1} H`` at ``beta = K * eta``
(transmit power normalized to 1), with per-user powers that give every user
an equal share of that power. The per-user SLNR collapses to the quadratic
form

    SLNR_k = q_k / (1 - q_k),     q_k = h_k* (H H* + K eta I)^{-1} h_k.

:func:`compute_metrics` reads every metric off one inverse of the smaller
shifted Gram matrix: one ``linalg.shifted_gram_inverse(H, K eta)`` call on
the channel as given inverts the K x K ``H* H`` when ``K <= N``, else the
N x N ``H H*``. The explicit route that checks it (``rzf_precode``,
``power_control``, ``sinr_instantaneous``) lives in :mod:`mimoslnr.oracles`.
"""

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .channel import check_positive_finite
from .linalg import _realization, shifted_gram_inverse

__all__ = ["MetricsPerUser", "DegenerateUserError", "compute_metrics"]

# q_k < 1 analytically but can round to 1; keep the ratio finite.
_Q_CLAMP = 1.0 - 1e-12


class DegenerateUserError(ValueError):
    """A user's precoding column has zero norm (only possible for h_k = 0)."""


@dataclass
class MetricsPerUser:
    """Per-user instantaneous metrics: shape (K,) for one channel realization, (B, K) for a stack."""

    slnr: np.ndarray
    sinr: np.ndarray
    power_sq: np.ndarray


def _as_channel(H):
    """``H`` as a complex array, checked to be an N x K matrix with N, K >= 1."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or 0 in H.shape:
        raise ValueError(f"H must be an N x K matrix with N, K >= 1, got shape {H.shape}")
    return H


def _as_channels(H):
    """``H`` as a complex N x K matrix or (B, N, K) stack of them, with no empty axis."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 3:
        return _as_channel(H)
    if 0 in H.shape:
        raise ValueError(f"H must be a (B, N, K) stack with B, N, K >= 1, got shape {H.shape}")
    return H


@one_blas_thread
def compute_metrics(H, eta):
    """SLNR, SINR, and squared power scalars for one channel realization or a stack of them.

    ``H`` is one N x K channel or a stack ``(B, N, K)``; each metric then has
    shape ``(K,)`` or ``(B, K)``, and row ``b`` of a stack's metrics is what
    ``H[b]`` alone gives, bit for bit. The products and per-user formulas run
    once over the stack, so the per-call overhead of a small system is paid
    once per stack, not once per realization.

    One factorization per realization: ``shifted_gram_inverse(H, K * eta)``
    inverts the smaller shifted Gram matrix. Every metric follows from the
    cross gains ``C[k, i] = h_k* f_i`` and the norms ``||f_k||^2``. For
    ``K <= N`` the push-through identity ``F = H (H* H + beta I)^{-1}``
    gives both without the N x K precoder: with the K x K Gram ``G = H* H``
    and ``W^{-1} = (G + K eta I)^{-1}``,

        C = G W^{-1},   q_k = Re C[k, k],   ||f_k||^2 = [W^{-1} G W^{-1}]_kk.

    ``q_k`` is read off ``G W^{-1}``, not ``I - K eta W^{-1}``, which
    cancels at low SNR. For ``K > N`` the precoder is
    ``F = (H H* + K eta I)^{-1} H`` from the N x N inverse, and ``C = H* F``.
    A zero precoding column raises :class:`DegenerateUserError`, which for a
    stack names the realization.
    """
    H = _as_channels(H)
    check_positive_finite(eta, "eta")
    N, K = H.shape[-2:]
    G, W_inv = shifted_gram_inverse(H, K * eta)
    if K <= N:
        C = G @ W_inv
        # sum_j W^{-1}[k, j] C[j, k], with W^{-1}[k, j] = conj(W^{-1}[j, k]).
        # Here and below in place, with the same bits: for a stack each fresh
        # temporary is a block-sized allocation, slower than its arithmetic.
        products = W_inv.conj()
        products *= C
        norms_sq = products.sum(axis=-2).real
    else:
        F = W_inv @ H
        C = H.conj().swapaxes(-1, -2) @ F
        norms_sq = np.sum(np.abs(F) ** 2, axis=-2)
    zero = norms_sq <= 0.0
    if zero.any():
        b, bad = divmod(int(np.flatnonzero(zero)[0]), K)
        raise DegenerateUserError(f"{_realization(H, b)}user {bad} has a zero precoding column")
    power_sq = 1.0 / (K * norms_sq)
    # Row k of |C|^2 p^2 holds |h_k* f_i p_i|^2 over all i; the i = k term is the signal.
    weighted = np.abs(C)
    weighted *= weighted
    weighted *= power_sq[..., None, :]
    signal = weighted.diagonal(0, -2, -1)
    sinr = signal / (np.sum(weighted, axis=-1) - signal + eta)
    q = np.clip(C.diagonal(0, -2, -1).real, 0.0, _Q_CLAMP)
    return MetricsPerUser(slnr=q / (1.0 - q), sinr=sinr, power_sq=power_sq)
