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

import numpy as np

from ._blas import find_new_pools, one_blas_thread

__all__ = [
    "EigConvergenceError",
    "NotHermitianError",
    "NotPsdError",
    "psd_sqrt",
    "shifted_gram_inverse",
]

# Relative asymmetry allowed before a matrix is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-12

# Eigenvalues of a nominally PSD matrix may round slightly negative; anything
# above -PSD_EIG_RTOL * ||A||_2 is clipped to zero instead of rejected.
PSD_EIG_RTOL = 1e-10

EPS = float(np.finfo(float).eps)
# dpteqr's eigenvector argument, unread when no eigenvectors are asked for.
_NO_VECTORS = np.zeros((1, 1))


def _extension_path(name):
    """The file of scipy's compiled module ``scipy.linalg.<name>``, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError(f"no scipy.linalg.{name} extension file")


def _load_extension(name):
    """Scipy's compiled module ``scipy.linalg.<name>``, without importing ``scipy.linalg``.

    The module is loaded from its file and registered under its own name, so
    a later ``import scipy.linalg`` shares it. ``_flapack`` imports no scipy
    package; ``_solve_toeplitz`` is a Cython module whose own imports run the
    ``scipy`` package's ``__init__``: 24 more modules, 9-19 ms and about
    1 MiB of peak RSS, once per process (scipy 1.17.1 on a 2-vCPU VM). If
    the file cannot be found or loaded, the module is imported through
    ``scipy.linalg`` instead.
    """
    qualified = "scipy.linalg." + name
    try:
        spec = importlib.util.spec_from_file_location(qualified, _extension_path(name))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return sys.modules.setdefault(qualified, module)
    except ImportError:  # no such file, or one that will not load
        return importlib.import_module(qualified)


# The only LAPACK routines the library calls: the Cholesky factor and
# inverse, the least-squares fit of Anderson acceleration and its workspace
# query, and the eigenvalues of a positive definite tridiagonal matrix.
LAPACK_ROUTINES = ("zpotrf", "zpotri", "dgelsd", "dgelsd_lwork", "dpteqr")
# The names bound from each compiled scipy.linalg module: LAPACK's from
# _flapack, and scipy's Levinson recursion for Toeplitz systems.
_BINDINGS = {"_flapack": LAPACK_ROUTINES, "_solve_toeplitz": ("levinson",)}
_bind_lock = threading.Lock()
_bound = set()


def _bind(extension):
    """Bind the names :data:`_BINDINGS` lists for ``extension`` as globals of this module, once.

    Every function here that calls one of them calls this first, and reading
    ``linalg.<name>`` from outside binds them too (:func:`__getattr__`), so
    a process loads each module at its first use only: one that never calls
    LAPACK never loads ``_flapack`` or the OpenBLAS it maps, and one that
    never solves a Toeplitz system never loads ``_solve_toeplitz`` or the
    ``scipy`` package. A module already registered, by an earlier
    ``import scipy.linalg``, is reused; otherwise :func:`_load_extension`
    loads it. The OpenBLAS pool that the ``_flapack`` load maps joins the
    others in ``_blas``, on one thread at once if the load ran inside a
    ``one_blas_thread`` call, so the first call rounds as every later one.
    """
    if extension in _bound:
        return
    with _bind_lock:
        if extension not in _bound:
            module = sys.modules.get("scipy.linalg." + extension) or _load_extension(extension)
            globals().update((name, getattr(module, name)) for name in _BINDINGS[extension])
            find_new_pools()
            _bound.add(extension)


def __getattr__(name):
    """``linalg.<name>`` for a name in :data:`_BINDINGS`, bound on first read."""
    for extension, names in _BINDINGS.items():
        if name in names:
            _bind(extension)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotHermitianError(ValueError):
    """Input violates conjugate symmetry beyond the relative tolerance."""


class NotPsdError(ValueError):
    """Input has an eigenvalue below the PSD tolerance band."""


class EigConvergenceError(RuntimeError):
    """The iterative eigensolver failed to converge."""


@one_blas_thread
def psd_sqrt(A):
    """Hermitian PSD square root ``S`` with ``S @ S == A`` up to rounding.

    ``A`` must be a finite, nonempty square matrix whose asymmetry
    ``||A - A*||_F`` is at most ``HERMITIAN_RTOL`` times ``||A||_F``
    (else :class:`NotHermitianError`); it is symmetrized exactly, to
    ``(A + A*) / 2`` with a real diagonal, before ``numpy.linalg.eigh``.
    Eigenvalues within ``-PSD_EIG_RTOL * ||A||_2`` of zero are clipped to
    zero; correlation matrices assembled in floating point are PSD in exact
    arithmetic but can round slightly negative. Anything below the band
    raises :class:`NotPsdError`, and an ``eigh`` that does not converge
    :class:`EigConvergenceError`, naming the dimension. ``S`` is exactly
    Hermitian.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n < 1:
        raise ValueError("A must have dimension >= 1")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    scale = np.linalg.norm(A)
    asym = np.linalg.norm(A - A.conj().T)
    if asym > HERMITIAN_RTOL * max(scale, 1e-300):
        raise NotHermitianError(
            f"matrix is not Hermitian: relative asymmetry {asym / max(scale, 1e-300):.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e}"
        )
    A = 0.5 * (A + A.conj().T)
    # The average above already has a real diagonal up to rounding; force it.
    np.fill_diagonal(A, A.diagonal().real)
    try:
        w, U = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(
            f"eigendecomposition did not converge for a {n}x{n} Hermitian matrix"
        ) from exc
    del A  # now, not at the return, or glibc trims eigh's workspace and it faults in every call
    spectral = float(np.max(np.abs(w)))
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
def shifted_gram_inverse(H, beta):
    """The Gram matrix ``G`` of H's shorter side and the inverse ``(G + beta I)^{-1}``.

    ``H`` is one finite n x k matrix or a stack of them, shape ``(B, n, k)``,
    as the caller holds it, and ``beta`` positive and finite. ``G`` is the
    k x k ``H* H`` when ``k <= n`` (ties included) and the n x n ``H H*``
    when ``k > n``, formed from one conjugate copy of ``H`` that is freed
    before the factorization. For a stack both results are stacks, with
    ``G[b]`` and the inverse of realization ``b`` each what one matrix
    ``H[b]`` gives, bit for bit. Every result matrix is exactly Hermitian.
    The products, checks and symmetrizations run once over the stack; each
    matrix has one Cholesky factorization (``zpotrf``), whose inverse comes
    from LAPACK's ``zpotri`` (LAPACK has no batched Cholesky). A shifted
    Gram matrix that overflows, or whose factorization fails, raises
    :class:`numpy.linalg.LinAlgError`, which for a stack names the
    realization.
    """
    H = _checked_channel(H, beta)
    m = min(H.shape[-2:])  # the order of G
    diagonal = np.arange(m)
    # Entries of H too large for their Gram overflow here without a warning,
    # and show on the diagonal: |W_ij| <= sqrt(W_ii W_jj) for a positive
    # definite W, so a finite diagonal bounds every entry.
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = H.conj().swapaxes(-1, -2)
        G = adjoint @ H if H.shape[-1] <= H.shape[-2] else H @ adjoint
        del adjoint  # now, not at the return: the factorization needs no copy of H
        # Exactly Hermitian, (G + G*) / 2: the product may round asymmetrically.
        G += G.conj().swapaxes(-1, -2)
        G *= 0.5
        # G itself, as G is exactly Hermitian, with each matrix column-major,
        # so zpotrf factorizes it in place.
        W = G.conj().swapaxes(-1, -2)
        W[..., diagonal, diagonal] += float(beta)
    if m == 0:
        return G, W
    finite = np.isfinite(W.diagonal(0, -2, -1).real).all(axis=-1)  # no inf or NaN
    if not finite.all():
        b = int(np.argmin(finite))
        raise np.linalg.LinAlgError(f"{_realization(H, b)}shifted Gram matrix is not finite")
    # zpotri fails only on a zero pivot, which a factorization that succeeded
    # rules out. It fills the lower triangle and keeps the factor's zeroed
    # upper one, so adding the conjugate transpose mirrors it and doubles
    # the real diagonal, which halving restores exactly.
    for b, matrix in enumerate(W.reshape(-1, m, m)):
        factor = _cholesky(matrix, f"{_realization(H, b)}shifted Gram matrix")
        zpotri(factor, lower=1, overwrite_c=1)
    W_inv = W.conj().swapaxes(-1, -2)
    W_inv += W
    W_inv[..., diagonal, diagonal] *= 0.5
    return G, W_inv


def _realization(H, b):
    """The prefix that names realization ``b`` of a stack ``H`` in a message; none for one matrix."""
    return f"realization {b}: " if H.ndim == 3 else ""


def _checked_channel(H, beta):
    """``H`` as a finite complex matrix or stack, once ``beta`` is known to be a positive finite shift."""
    H = np.asarray(H, dtype=complex)
    if H.ndim not in (2, 3):
        raise ValueError(f"H must be a matrix or a stack of them, got shape {H.shape}")
    # A real number only: a bool would pass for 1, and float() rejects a complex shift.
    shift = np.asarray(beta)
    if shift.ndim != 0 or shift.dtype.kind not in "iuf" or not 0.0 < float(shift) < np.inf:
        raise ValueError(f"beta must be a positive finite real number, got {beta!r}")
    finite = np.isfinite(H).all(axis=(-2, -1))
    if not finite.all():
        b = int(np.argmin(finite))
        raise ValueError(f"{_realization(H, b)}H must be finite")
    return H


def _cholesky(A, what):
    """The lower Cholesky factor of the column-major ``A``, in place, by LAPACK's ``zpotrf``.

    ``zpotrf`` and the other routines, bound at the first LAPACK call, come
    from scipy's compiled ``_flapack`` module (see :func:`_bind`; no
    scipy Python package is imported). It reads only the lower triangle of
    ``A``, which must be Hermitian positive definite, and zeroes the upper
    one. If the factorization fails, :class:`numpy.linalg.LinAlgError`
    names ``A`` as ``what``.
    """
    _bind("_flapack")
    chol, info = zpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (zpotrf info {info})")
    return chol


def _toeplitz_predictor(t, what):
    """``(y, e)``: the first column of ``M^{-1}`` is ``(1, -y) / e``, for Hermitian Toeplitz ``M``.

    ``t`` is M's first column (complex, contiguous, ``M[m, n] = t[m - n]``
    for ``m >= n``). ``y`` solves the Yule-Walker equations
    ``M[:-1, :-1] y = t[1:]``, and ``e = t[0] - t[1:]^H y``, the Schur
    complement of that block, is the error of the order ``N - 1`` linear
    predictor. Scipy's compiled ``levinson`` (bound at the first call, see
    :func:`_bind`) solves the equations by the Levinson-Durbin recursion in
    O(N^2) with no N x N matrix (Levinson 1947; Durbin 1960), weakly stable
    for positive definite ``M`` (Cybenko, SIAM J. Sci. Stat. Comput. 1(3),
    1980). Its reflection coefficients ``k_1, ..., k_{N-1}`` certify
    definiteness: consecutive leading principal minors of ``M`` have the
    ratio ``e_m = t_0 prod_{j<=m} (1 - |k_j|^2)``, the error of the order m
    predictor, so ``M`` is positive definite exactly when ``t_0 > 0`` and
    every ``|k_j| < 1`` (``e`` is ``e_{N-1}``). The first column alone
    could not tell: its ``a_0 = 1 / e`` is positive for some indefinite
    ``M``. A ``t`` that fails this, a singular principal minor that stops the
    recursion, or an ``e`` that rounds to zero or below raises
    :class:`numpy.linalg.LinAlgError` naming ``M`` as ``what``.
    """
    _bind("_solve_toeplitz")
    n = t.size
    if not t[0].real > 0.0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (diagonal {t[0].real:.3g})")
    if n == 1:
        return t[1:], t[0].real
    try:
        # levinson takes the system's first row reversed, without the
        # diagonal, and then its first column: conj(t[n-2:0:-1]), t[:n-1].
        y, reflection = levinson(np.concatenate((t[n - 2:0:-1].conj(), t[:n - 1])), t[1:])
    except np.linalg.LinAlgError as exc:  # "Singular principal minor"
        raise np.linalg.LinAlgError(f"{what} is not positive definite ({exc})") from exc
    # reflection[0] is 1 by convention; |k_j| >= 1, or NaN, fails the test.
    k = np.abs(reflection[1:])
    if not k.max() < 1.0:
        order = int(np.argmax(~(k < 1.0))) + 1
        raise np.linalg.LinAlgError(
            f"{what} is not positive definite (reflection coefficient {k[order - 1]:.6g} "
            f"at order {order})"
        )
    e = t[0].real - np.vdot(t[1:], y).real
    if not e > 0.0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (prediction error {e:.3g})")
    return y, e


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
    _bind("_flapack")
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
    _bind("_flapack")
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
