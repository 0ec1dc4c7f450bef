"""Dense complex linear-algebra kernels used throughout the package.

Everything operates on plain ``numpy`` arrays of ``complex128``. Hermitian
inputs are validated against a *relative* asymmetry tolerance and then
symmetrized exactly, so downstream code can rely on ``A == A.conj().T``
bit-for-bit. All other tolerances in this module are likewise relative to
the Frobenius or spectral norm of the input, never absolute, because SNR
sweeps move matrix scales by orders of magnitude.

The kernels run on one BLAS thread (``mimoslnr._blas.one_blas_thread``) and
restore the caller's thread count afterwards: at these sizes a second
thread costs more than it saves, and a threaded Cholesky would make the
results depend on the core count.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._blas import one_blas_thread

__all__ = [
    "EigDecomposition",
    "EigConvergenceError",
    "NotHermitianError",
    "NotPsdError",
    "hermitian_part",
    "herm_eig",
    "psd_sqrt",
    "shifted_gram_solve",
]

# Relative asymmetry allowed before a matrix is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-12

# Eigenvalues of a nominally PSD matrix may round slightly negative; anything
# above -PSD_EIG_RTOL * ||A||_2 is clipped to zero instead of rejected.
PSD_EIG_RTOL = 1e-10


class NotHermitianError(ValueError):
    """Input violates conjugate symmetry beyond the relative tolerance."""


class NotPsdError(ValueError):
    """Input has an eigenvalue below the PSD tolerance band."""


class EigConvergenceError(RuntimeError):
    """The iterative eigensolver failed to converge."""


class EigDecomposition(NamedTuple):
    """Hermitian eigendecomposition ``A = U diag(w) U*``.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(A, name="A"):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    return A


def hermitian_part(A, rtol=HERMITIAN_RTOL):
    """Validate that ``A`` is Hermitian within ``rtol`` and symmetrize exactly.

    Parameters
    ----------
    A : array_like, shape (n, n)
        Nominally Hermitian matrix.
    rtol : float
        Maximum allowed ``||A - A*||_F`` relative to ``||A||_F``.

    Returns
    -------
    ndarray
        ``(A + A*) / 2``, exactly Hermitian with a real diagonal.
    """
    A = _as_square(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    scale = np.linalg.norm(A)
    asym = np.linalg.norm(A - A.conj().T)
    if asym > rtol * max(scale, 1e-300):
        raise NotHermitianError(
            f"matrix is not Hermitian: relative asymmetry {asym / max(scale, 1e-300):.3e} "
            f"exceeds {rtol:.1e}"
        )
    H = 0.5 * (A + A.conj().T)
    # The average above already has a real diagonal up to rounding; force it.
    np.fill_diagonal(H, H.diagonal().real)
    return H


@one_blas_thread
def herm_eig(A):
    """Eigendecomposition of a Hermitian matrix.

    Returns an :class:`EigDecomposition` with eigenvalues sorted ascending
    and unitary eigenvectors, so ``U @ diag(w) @ U*`` reconstructs the input.

    Raises
    ------
    EigConvergenceError
        If the underlying solver does not converge (the message names the
        matrix dimension).
    """
    H = hermitian_part(A)
    n = H.shape[0]
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(
            f"eigendecomposition did not converge for a {n}x{n} Hermitian matrix"
        ) from exc
    return EigDecomposition(eigenvalues=w, eigenvectors=U)


@one_blas_thread
def psd_sqrt(A):
    """Hermitian PSD square root ``S`` with ``S @ S == A`` up to rounding.

    Eigenvalues within ``-1e-10 * ||A||_2`` of zero are clipped to zero;
    correlation matrices assembled in floating point are PSD in exact
    arithmetic but can round slightly negative. Anything below the band
    raises :class:`NotPsdError`.
    """
    w, U = herm_eig(A)
    spectral = float(np.max(np.abs(w))) if w.size else 0.0
    floor = -PSD_EIG_RTOL * spectral
    if np.any(w < floor):
        raise NotPsdError(
            f"matrix is not PSD: smallest eigenvalue {w.min():.3e} is below "
            f"{floor:.3e} (= -{PSD_EIG_RTOL:.0e} * ||A||_2)"
        )
    w = np.clip(w, 0.0, None)
    S = (U * np.sqrt(w)) @ U.conj().T
    S = 0.5 * (S + S.conj().T)
    np.fill_diagonal(S, S.diagonal().real)
    return S


@one_blas_thread
def shifted_gram_solve(H, beta, B):
    """Solve ``(H H* + beta I) X = B`` for ``X``.

    Parameters
    ----------
    H : array_like, shape (n, k)
        Channel-style matrix whose Gram matrix shifts the identity.
    beta : float
        Positive finite shift; makes the system Hermitian positive definite.
    B : array_like, shape (n, m)
        Right-hand side (a vector is accepted and treated as one column).
        ``H`` and ``B`` must be finite.

    Returns
    -------
    ndarray
        Solution with the same shape as ``B``.

    Notes
    -----
    Uses a Cholesky factorization of the shifted Gram matrix rather than an
    explicit inverse; for ``beta > 0`` the matrix is positive definite and
    factorization is both stabler and cheaper at the dimensions targeted
    here (up to a few hundred).
    """
    H = np.asarray(H, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if H.ndim != 2:
        raise ValueError(f"H must be a matrix, got shape {H.shape}")
    if not (np.isrealobj(beta) or np.isscalar(beta)) or not 0.0 < float(beta) < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    # Checked here, on O(n k + n m) entries, so the O(n^2) Gram matrix and
    # its factorization can skip scipy's own finiteness checks.
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(B))):
        raise ValueError("H and B must be finite")
    n = H.shape[0]
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(
            f"right-hand side has shape {B.shape}, expected ({n}, m) to match H with {n} rows"
        )
    W = H @ H.conj().T
    W = 0.5 * (W + W.conj().T)
    W[np.diag_indices(n)] += float(beta)
    factor = cho_factor(W, lower=True, check_finite=False)
    X = cho_solve(factor, B, check_finite=False)
    return X[:, 0] if vector_rhs else X

