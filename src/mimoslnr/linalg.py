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
import math
import os
import sys
import threading
from typing import NamedTuple

import numpy as np

from ._blas import find_new_pools, one_blas_thread

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

EPS = float(np.finfo(float).eps)
# dpteqr's eigenvector argument, unread when no eigenvectors are asked for.
_NO_VECTORS = np.zeros((1, 1))


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


def _load_lapack():
    """Scipy's compiled LAPACK module ``_flapack``, without importing scipy.

    The module is loaded from its file and registered under its own name, so
    neither ``scipy`` nor ``scipy.linalg`` is imported and a later
    ``import scipy.linalg`` shares it. Its routines are the callables that
    ``scipy.linalg.lapack`` exports; if the file cannot be found or loaded,
    that module is imported instead.
    """
    try:
        spec = importlib.util.spec_from_file_location(_FLAPACK, _flapack_path())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return sys.modules.setdefault(_FLAPACK, module)
    except ImportError:  # no such file, or one that will not load
        from scipy.linalg import lapack

        return lapack


# The only LAPACK routines the library calls: the Cholesky solve, factor and
# inverse, the least-squares fit of Anderson acceleration and its workspace
# query, and the eigenvalues of a positive definite tridiagonal matrix.
LAPACK_ROUTINES = ("zposv", "zpotrf", "zpotri", "dgelsd", "dgelsd_lwork", "dpteqr")
_lapack_lock = threading.Lock()
_lapack_bound = False


def _bind_lapack():
    """Bind :data:`LAPACK_ROUTINES` as globals of this module, once, at the first LAPACK call.

    Every function here that calls one of them calls this first, and reading
    ``linalg.<routine>`` from outside binds them too (:func:`__getattr__`),
    so a process that never calls LAPACK never loads ``_flapack`` or the
    OpenBLAS it maps. An ``_flapack`` already registered, by an earlier
    ``import scipy.linalg``, is reused; otherwise :func:`_load_lapack`
    loads it. The OpenBLAS pool that the load maps joins the others in
    ``_blas``, on one thread at once if the load ran inside a
    ``one_blas_thread`` call, so the first call rounds as every later one.
    """
    global _lapack_bound
    if _lapack_bound:
        return
    with _lapack_lock:
        if not _lapack_bound:
            lapack = sys.modules.get(_FLAPACK) or _load_lapack()
            globals().update((name, getattr(lapack, name)) for name in LAPACK_ROUTINES)
            find_new_pools()
            _lapack_bound = True


def __getattr__(name):
    """``linalg.<routine>`` for a name in :data:`LAPACK_ROUTINES`, bound on first read."""
    if name in LAPACK_ROUTINES:
        _bind_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    here (up to a few hundred). One call to LAPACK's ``zposv`` factorizes
    and solves (see :func:`_cholesky_solve`), the routines behind scipy's
    ``cho_factor`` and ``cho_solve`` in one call without their per-call
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
    factor = _cholesky(W, "shifted Gram matrix")
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


def _cholesky(A, what):
    """The lower Cholesky factor of the column-major ``A``, in place, by LAPACK's ``zpotrf``.

    ``zpotrf`` and the other routines, bound at the first LAPACK call, come
    from scipy's compiled ``_flapack`` module (see :func:`_bind_lapack`; no
    scipy Python package is imported). It reads only the lower triangle of
    ``A``, which must be Hermitian positive definite, and zeroes the upper
    one. If the factorization fails, :class:`numpy.linalg.LinAlgError`
    names ``A`` as ``what``.
    """
    _bind_lapack()
    chol, info = zpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (zpotrf info {info})")
    return chol


def _cholesky_solve(A, B, what, overwrite_a=False):
    """Solve ``A X = B`` by one call to LAPACK's ``zposv``.

    ``zposv`` is ``zpotrf`` followed by ``zpotrs``, with the same bits. It
    reads only the lower triangle of ``A``, which must be Hermitian positive
    definite; ``overwrite_a`` lets it factorize a column-major ``A`` in
    place. ``B`` keeps its shape, a vector included. If the factorization
    fails, :class:`numpy.linalg.LinAlgError` names ``A`` as ``what``.
    """
    _bind_lapack()
    _, X, info = zposv(A, B, lower=1, overwrite_a=int(overwrite_a))
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (zposv info {info})")
    return X


def _kms_eigenvalues(n, r):
    """Ascending eigenvalues of the n x n Kac-Murdock-Szego matrix ``r^|i-j|``, ``0 <= r < 1``.

    With ``c = sqrt(1 - r^2)``, the lower bidiagonal ``B`` with diagonal
    ``(c, 1, ..., 1)`` and subdiagonal ``-r`` whitens the AR(1) sequence
    whose covariance is that matrix, so ``B^T B`` is ``c^2`` times its
    inverse (tridiagonal: diagonal ``1, 1 + r^2, ..., 1 + r^2, 1``,
    off-diagonal ``-r``; Kac, Murdock & Szego, J. Rat. Mech. Anal. 2, 1953).
    Its eigenvalues are ``c^2 / mu`` over the eigenvalues ``mu`` of the
    positive definite tridiagonal ``B B^T`` (diagonal
    ``c^2, 1 + r^2, ..., 1 + r^2``, off-diagonal ``-r c, -r, ..., -r``),
    which LAPACK's ``dpteqr`` computes without eigenvectors. That form, and
    not ``B^T B``, is fed to it because its Cholesky pivots are
    ``c^2, 1, ..., 1``: the last pivot of ``B^T B`` is ``c^2`` again, formed
    by cancellation, and lost digits there as r nears 1 (3.4e-9 relative at
    N = 64 and r = 0.999999, against 1.6e-13). If ``dpteqr`` fails,
    :class:`numpy.linalg.LinAlgError` names its ``info``.
    """
    _bind_lapack()
    c2 = (1.0 - r) * (1.0 + r)
    d = np.full(n, 1.0 + r * r)
    d[0] = c2
    # f2py wants a one-element off-diagonal even when n = 1.
    e = np.full(max(n - 1, 1), -r)
    e[0] = -r * math.sqrt(c2)
    mu, _, _, info = dpteqr(d, e, _NO_VECTORS, compute_z=0, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal eigenvalues did not converge (dpteqr info {info})"
        )
    return c2 / mu[::-1]  # dpteqr returns them in descending order


def _least_squares(rows, max_columns):
    """``fit(A, b)``: the least-squares solution of ``A x = b`` by LAPACK's ``dgelsd``.

    ``A`` has ``rows`` rows and at most ``max_columns`` columns, ``b`` has
    ``rows`` entries. Singular values below ``eps * max(rows, columns)``
    times the largest count as zero, the cutoff of
    ``np.linalg.lstsq(A, b, rcond=None)``, whose minimum-norm solution
    ``fit`` returns without lstsq's per-call wrapping (the same bits on
    4,000 seeded fits, numpy 2.4 against scipy 1.17). The workspace is
    queried once, for ``max_columns`` columns, which is enough for fewer.
    A ``dgelsd`` that fails raises :class:`numpy.linalg.LinAlgError`.
    """
    _bind_lapack()
    work, iwork, _ = dgelsd_lwork(rows, max_columns, 1)
    lwork, size_iwork = int(work), int(iwork)

    def fit(A, b):
        columns = A.shape[1]
        if columns > rows:  # dgelsd returns the solution in b, so b needs room for it
            b = np.concatenate((b, np.zeros(columns - rows)))
        cond = EPS * max(rows, columns)
        x, _, _, info = dgelsd(A, b, lwork, size_iwork, cond)
        if info != 0:
            raise np.linalg.LinAlgError(f"least-squares fit did not converge (dgelsd info {info})")
        return x[:columns]

    return fit
