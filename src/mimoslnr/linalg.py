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

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np

from ._blas import one_blas_thread

__all__ = [
    "EigDecomposition",
    "EigConvergenceError",
    "NotHermitianError",
    "NotPsdError",
    "hermitian_part",
    "herm_eig",
    "psd_sqrt",
    "shifted_gram_inverse",
    "shifted_gram_solve",
]

# Relative asymmetry allowed before a matrix is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-12

# Eigenvalues of a nominally PSD matrix may round slightly negative; anything
# above -PSD_EIG_RTOL * ||A||_2 is clipped to zero instead of rejected.
PSD_EIG_RTOL = 1e-10


_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """The file of scipy's compiled LAPACK module, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError(f"no {_FLAPACK} extension file")


def _load_cholesky_routines():
    """LAPACK's ``zpotrf``, ``zpotrs`` and ``zpotri`` from scipy's compiled ``_flapack`` module.

    The module is loaded from its file and registered under its own name, so
    neither ``scipy`` nor ``scipy.linalg`` is imported and a later
    ``import scipy.linalg`` shares it. These are the callables that
    ``scipy.linalg.lapack`` exports; if the file cannot be found or loaded,
    they are imported from there. Called at import, before ``_blas.pools()``
    first reads which OpenBLAS libraries are mapped.
    """
    try:
        spec = importlib.util.spec_from_file_location(_FLAPACK, _flapack_path())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        flapack = sys.modules.setdefault(_FLAPACK, module)
    except ImportError:  # no such file, or one that will not load
        from scipy.linalg import lapack as flapack
    return flapack.zpotrf, flapack.zpotrs, flapack.zpotri


zpotrf, zpotrs, zpotri = _load_cholesky_routines()


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
    called directly (see :func:`_cholesky`), the routines behind
    scipy's ``cho_factor`` and ``cho_solve`` without their per-call
    wrapping. A factorization that fails raises
    :class:`numpy.linalg.LinAlgError`. The reference routes in
    ``mimoslnr.oracles`` solve with it; the metrics take
    :func:`shifted_gram_inverse` instead.
    """
    H = _checked_channel(H, beta)
    B = np.asarray(B, dtype=complex)
    if not np.all(np.isfinite(B)):
        raise ValueError("B must be finite")
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
    W = _gram(H)
    W[np.diag_indices(n)] += float(beta)
    X = _cholesky_solve(W, B, "shifted Gram matrix")
    return X[:, 0] if vector_rhs else X


@one_blas_thread
def shifted_gram_inverse(H, beta):
    """The Gram matrix ``G = H H*`` and the inverse ``(G + beta I)^{-1}``.

    ``H`` must be a finite matrix and ``beta`` positive and finite, as for
    :func:`shifted_gram_solve`. Both results are exactly Hermitian. One
    Cholesky factorization (``zpotrf``) gives the inverse through LAPACK's
    ``zpotri``. A factorization that fails raises
    :class:`numpy.linalg.LinAlgError`.
    """
    H = _checked_channel(H, beta)
    n = H.shape[0]
    G = _gram(H)
    if n == 0:
        return G, G.copy()
    W = G.copy(order="F")  # column-major, so zpotrf factorizes it in place
    W[np.diag_indices(n)] += float(beta)
    # zpotri fails only on a zero pivot, which a factorization that succeeded
    # rules out. It fills the lower triangle and keeps the factor's zeroed
    # upper one, so adding the conjugate transpose mirrors it and doubles
    # the real diagonal, which halving restores exactly.
    factor = _cholesky(W, "shifted Gram matrix", overwrite_a=True, clean=True)
    W_inv, _ = zpotri(factor, lower=1, overwrite_c=1)
    W_inv = W_inv + W_inv.conj().T
    W_inv[np.diag_indices(n)] *= 0.5
    return G, W_inv


def _checked_channel(H, beta):
    """``H`` as a finite complex matrix, once ``beta`` is known to be a positive finite shift.

    Checked here, on the O(n k) entries of ``H``, so the O(n^2) Gram matrix
    and its factorization need no check of their own.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2:
        raise ValueError(f"H must be a matrix, got shape {H.shape}")
    # A real number only: a bool would pass for 1, and float() rejects a complex shift.
    shift = np.asarray(beta)
    if shift.ndim != 0 or shift.dtype.kind not in "iuf" or not 0.0 < float(shift) < np.inf:
        raise ValueError(f"beta must be a positive finite real number, got {beta!r}")
    if not np.all(np.isfinite(H)):
        raise ValueError("H must be finite")
    return H


def _gram(H):
    """``H H*``, symmetrized exactly: the product itself may round asymmetrically."""
    G = H @ H.conj().T
    return 0.5 * (G + G.conj().T)


def _cholesky(A, what, overwrite_a=False, clean=False):
    """The lower Cholesky factor of ``A`` by LAPACK's ``zpotrf``.

    ``zpotrf`` and the other routines bound at import come from scipy's
    compiled ``_flapack`` module (see :func:`_load_cholesky_routines`; no
    scipy Python package is imported). It reads only the lower triangle of
    ``A``, which must be Hermitian positive definite, and leaves the upper
    one as it was unless ``clean`` zeroes it; ``overwrite_a`` lets it
    factorize a column-major ``A`` in place. If the factorization fails,
    :class:`numpy.linalg.LinAlgError` names ``A`` as ``what``.
    """
    chol, info = zpotrf(A, lower=1, clean=int(clean), overwrite_a=int(overwrite_a))
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (zpotrf info {info})")
    return chol


def _cholesky_solve(A, B, what, overwrite_a=False):
    """Solve ``A X = B`` by one Cholesky factorization of ``A`` (see :func:`_cholesky`)."""
    return zpotrs(_cholesky(A, what, overwrite_a), B, lower=1)[0]
