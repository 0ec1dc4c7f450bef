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
from scipy.linalg.lapack import zpotrf, zpotrs

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


def hermitian_part(A):
    """Validate that ``A`` is Hermitian and symmetrize exactly.

    Parameters
    ----------
    A : array_like, shape (n, n)
        Nominally Hermitian matrix; ``||A - A*||_F`` may be at most
        ``HERMITIAN_RTOL`` times ``||A||_F``.

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
    if asym > HERMITIAN_RTOL * max(scale, 1e-300):
        raise NotHermitianError(
            f"matrix is not Hermitian: relative asymmetry {asym / max(scale, 1e-300):.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e}"
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
    here (up to a few hundred). LAPACK's ``zpotrf`` and ``zpotrs`` are
    called directly, the routines behind scipy's ``cho_factor`` and
    ``cho_solve`` without their per-call wrapping. A factorization that
    fails raises :class:`numpy.linalg.LinAlgError`.
    """
    H = np.asarray(H, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if H.ndim != 2:
        raise ValueError(f"H must be a matrix, got shape {H.shape}")
    if not (np.isrealobj(beta) or np.isscalar(beta)) or not 0.0 < float(beta) < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    # Checked here, on O(n k + n m) entries, so the O(n^2) Gram matrix and
    # its factorization need no check of their own; ``rzf_precode`` passes
    # one array as both ``H`` and ``B``, scanned once.
    if not (np.all(np.isfinite(H)) and (B is H or np.all(np.isfinite(B)))):
        raise ValueError("H and B must be finite")
    n = H.shape[0]
    vector_rhs = B.ndim == 1
    if vector_rhs:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(
            f"right-hand side has shape {B.shape}, expected ({n}, m) to match H with {n} rows"
        )
    if n == 0:
        # zpotrf rejects a 0 x 0 matrix; the empty system's solution is empty.
        X = np.empty_like(B)
        return X[:, 0] if vector_rhs else X
    W = H @ H.conj().T
    W = 0.5 * (W + W.conj().T)
    W[np.diag_indices(n)] += float(beta)
    X = _cholesky_solve(W, B, "shifted Gram matrix")
    return X[:, 0] if vector_rhs else X


def _cholesky_solve(A, B, what, overwrite_a=False):
    """Solve ``A X = B`` by one Cholesky factorization of ``A``.

    LAPACK's ``zpotrf`` and ``zpotrs`` read only the lower triangle of
    ``A``, which must be Hermitian positive definite; ``overwrite_a`` lets
    ``zpotrf`` factorize a column-major ``A`` in place. If the factorization
    fails, :class:`numpy.linalg.LinAlgError` names ``A`` as ``what``.
    """
    chol, info = zpotrf(A, lower=1, clean=0, overwrite_a=int(overwrite_a))
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (zpotrf info {info})")
    return zpotrs(chol, B, lower=1)[0]
