"""Deterministic equivalents of the per-user SLNR in the large-array limit.

As N and K grow at a fixed ratio ``x = N/K``, the random SLNR of user k
concentrates on ``gamma_k``, the unique nonnegative solution of the coupled
fixed-point system

    gamma_k = trace( R_k (sum_j R_j / (1 + gamma_j) + K eta I)^{-1} ).

The map on the right is increasing, and at full load and high SNR its
contraction factor ``L`` tends to 1, so plain (Picard) iteration crawls
there: 10 000 steps fall short at N = K and 60 dB. The vector solver
(:func:`_anderson`, behind :func:`solve_exponential_fixed_point` and the
dense reference ``oracles.solve_fixed_point``) therefore runs safeguarded
Anderson acceleration on the Picard step (Walker & Ni, SIAM J. Numer. Anal.
49(4), 2011). It stops once ``residual * L / (1 - L)``, which bounds the
distance to the fixed point to first order, is within the tolerance, with
``L`` estimated from plain steps, or once rounding stops the residual from
falling. The fixed point is unique (Wagner, Couillet, Debbah & Slock, IEEE
Trans. IT 58(7), 2012), so the start only sets the path. The dense reference
starts from all zeros, and so does the Toeplitz solver unless it is given a
``start``: the correlation sweep starts each phase draw at the uncorrelated
closed form, exact at ``rho = 0``, and carries the draw's gammas from one
``rho`` to the next.
Special cases reduce the system:

- uncorrelated channels (``R_k = I``) admit the closed form implemented in
  :func:`gamma_uncorrelated`;
- a correlation matrix shared by all users reduces to a scalar fixed point
  over its eigenvalues (:func:`gamma_common_r`), whose value never exceeds
  the uncorrelated one;
- the exponential model ``R_k[m, n] = rho^|m-n| exp(1j (m-n) theta_k)``
  makes ``sum_j R_j / (1 + gamma_j)`` a Hermitian Toeplitz matrix set by N
  lags, so :func:`solve_exponential_fixed_point` solves the system on those
  lags for any phases, without forming the K matrices ``R_k``. One
  Cholesky solve per step (one LAPACK ``zposv`` call) gives the first
  column of the inverse, and the Gohberg-Semencul formula turns it into
  the inverse's diagonal sums;
- evenly spaced phases ``theta_k = 2 pi k / K`` put every user on one
  orbit ``R_k = D^k R_0 D^-k`` with ``D = diag(exp(2j pi m / K))``. The
  fixed point is unique, so every ``gamma_k`` is equal, and
  :func:`gamma_exp_even` solves the scalar fixed point of
  :func:`gamma_common_r` over the eigenvalues of the user average
  ``(1/K) sum_k R_k``. Its closed form keeps ``rho^|m-n|`` on the lags
  ``m - n`` that K divides and is 0 elsewhere
  (``oracles.even_mean_correlation`` builds it as the tests' reference);
- a phase shared by every user, ``R_k = D R D*`` with ``D`` diagonal and
  unitary, leaves the eigenvalues of ``R[m, n] = rho^|m-n|``, whatever the
  phase: :func:`gamma_exp_common`.

Neither scalar route forms an N x N matrix. ``rho^|m-n|`` is a
Kac-Murdock-Szego (KMS) matrix, whose inverse is tridiagonal, so its
eigenvalues come from a tridiagonal eigensolver
(``linalg._kms_eigenvalues``). The even-phase user average keeps ``rho^|d|``
only on the lags ``d`` that K divides, so grouping the indices by
``m mod K`` splits it into a direct sum of KMS matrices in ``rho^K``:
``N mod K`` blocks of size ``ceil(N/K)`` and the rest of size
``floor(N/K)``, two distinct spectra at most.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .channel import check_count, check_positive_finite, check_rho, check_vector
from .linalg import EigConvergenceError, _cholesky_solve, _kms_eigenvalues, _least_squares

__all__ = [
    "AsymptoticSolution",
    "FixedPointError",
    "solve_exponential_fixed_point",
    "gamma_uncorrelated",
    "gamma_common_r",
    "gamma_exp_even",
    "gamma_exp_common",
]

DEFAULT_TOL = 1e-12
# Cap on step evaluations of the vector solvers and on Brent iterations of
# the scalar one; read at call time.
DEFAULT_MAX_ITER = 10000
# Anderson acceleration extrapolates from this many past steps.
HISTORY = 5
# Within FLOOR * (1 + max gamma) of a fixed point the contraction factor is
# measured, and a residual there that has not fallen for STALL steps sits on
# the rounding floor of the step: the run stops.
STALL = 5
EPS = float(np.finfo(float).eps)
FLOOR = math.sqrt(EPS)


class FixedPointError(RuntimeError):
    """Fixed-point iteration hit the iteration cap or a non-finite iterate."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class AsymptoticSolution:
    """Deterministic SLNR values with solver diagnostics.

    ``residual`` is ``max_k |step(gamma)_k - gamma_k|`` at the returned point,
    ``contraction`` the estimate of the Picard map's contraction factor ``L``
    (NaN before a plain step has contracted), and ``error_bound`` the
    first-order bound ``residual * L / (1 - L)`` on ``max_k`` of the distance
    to the fixed point (inf while ``L`` is unknown). The bound leaves out
    rounding, which limits any solver to a few ``eps * (1 + max gamma) / (1 - L)``;
    at a zero residual ``error_bound`` is that rounding floor, one such
    term, since a step that rounds to no change bounds nothing finer.
    """

    gamma: np.ndarray
    iterations: int
    residual: float
    contraction: float
    error_bound: float


@one_blas_thread
def solve_exponential_fixed_point(N, rho, theta, eta, tol=DEFAULT_TOL, *, start=None):
    """Solve the coupled system for exponential profiles with per-user phases.

    The users' matrices are ``R_k[m, n] = rho^|m-n| exp(1j (m-n) theta_k)``.
    Safeguarded Anderson acceleration of the Picard step (see
    :func:`_anderson`) runs from ``start``, all zeros by default; the
    solution does not depend on the path, but a start near it shortens the
    path. No ``R_k`` is formed: ``M = sum_k w_k R_k + K eta I`` with
    ``w_k = 1/(1 + gamma_k)`` is Hermitian Toeplitz with lags

        t_d = rho^d sum_k w_k exp(1j d theta_k)   (d >= 0; plus K eta at d = 0),

    built in O(KN). With ``s_d`` the sum of the d-th subdiagonal of
    ``M^{-1}`` (see :func:`_toeplitz_inverse_sums`),

        gamma_k = Re sum_{d>=0} c_d rho^d exp(-1j d theta_k) s_d,

    where ``c_0 = 1`` and ``c_d = 2`` for ``d > 0`` count both triangles.

    Parameters
    ----------
    N : int
        Antenna count.
    rho : float
        Correlation coefficient in ``[0, 1)``.
    theta : (K,) array_like
        Finite per-user phases in radians.
    eta : float
        Inverse SNR; must be positive and finite so the resolvent stays
        definite.
    tol : float
        Positive finite relative tolerance: the run stops at a plain step
        once both its residual and ``residual * L / (1 - L)`` are within
        ``tol * (1 + max_k gamma_k)``, or on the rounding floor.
    start : (K,) array_like, optional
        Keyword only: the first iterate, K finite nonnegative numbers, such
        as the solution at a nearby ``rho``. ``None`` starts from all zeros.

    Returns
    -------
    AsymptoticSolution

    Raises
    ------
    ValueError
        If an argument is invalid; for ``start``, anything but K finite
        nonnegative numbers.
    FixedPointError
        After ``DEFAULT_MAX_ITER`` evaluations of the step, or at a plain
        (Picard) iterate that is not finite.
    numpy.linalg.LinAlgError
        If ``M`` is not numerically positive definite.
    """
    check_count(N, "N")
    check_rho(rho)
    theta = check_vector(theta, "theta")
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")
    K = theta.size
    if start is None:
        start = np.zeros(K)
    else:
        start = check_vector(start, "start")
        if start.size != K or not start.min() >= 0.0:
            raise ValueError(
                f"start must be K={K} nonnegative numbers, "
                f"got {start.size} with min {start.min():.3g}"
            )
    return _solve_toeplitz(_phase_table(N, theta), rho, eta, tol, start)


def _phase_table(N, theta):
    """The (K, N) table ``exp(1j d theta_k)`` over the lags ``d`` and the users' phases."""
    return np.exp(1j * np.outer(theta, np.arange(N)))


def _solve_toeplitz(phase, rho, eta, tol, start):
    """:func:`solve_exponential_fixed_point` on checked inputs and the users' phase table.

    ``phase`` is :func:`_phase_table` of the phases, which does not depend
    on ``rho``: the correlation sweep builds it once per draw.
    """
    K, N = phase.shape
    lags = np.arange(N)
    decay = rho ** lags
    unphase = phase.conj()
    fold = np.where(lags > 0, 2.0, 1.0) * decay
    inverse_sums = _toeplitz_inverse_sums(N)

    def step(gamma):
        t = decay * ((1.0 / (1.0 + gamma)) @ phase)
        t[0] += K * eta
        return (unphase @ (fold * inverse_sums(t))).real

    return _anderson(step, start, tol, DEFAULT_MAX_ITER)


@functools.lru_cache(maxsize=8)
def _lag_table(N):
    """The read-only N x N table ``|m - n|``, built once per N."""
    lags = np.arange(N)
    table = np.abs(np.subtract.outer(lags, lags))
    table.flags.writeable = False
    return table


def _toeplitz_inverse_sums(N):
    """``sums(t)``: the subdiagonal sums of ``M^{-1}`` for N x N Hermitian Toeplitz ``M``.

    ``t`` is M's first column (``M[m, n] = t[m - n]`` for ``m >= n``), and
    ``sums(t)[d]`` is the sum of the d-th subdiagonal of ``M^{-1}``. One
    Cholesky solve of ``M`` gives the first column ``a`` of ``M^{-1}``, and
    the Gohberg-Semencul formula gives the rest of it:

        M^{-1} = (L(a) L(a)^H - L(b) L(b)^H) / a_0,   b = (0, conj(a_{N-1}), ..., conj(a_1)),

    with ``L(v)`` the lower triangular Toeplitz matrix with first column
    ``v``. Summing along the diagonals, ``b``'s term is ``a``'s with weight
    ``j``, so

        s_d = sum_j (N - d - 2j) a_{j+d} conj(a_j) / a_0.

    The weight is ``u_{j+d} + u_j`` with ``u_j = (N - 2j) / 2``, so with
    ``c_d = sum_j u_{j+d} a_{j+d} conj(a_j)`` (``d`` from ``1 - N`` to
    ``N - 1``), ``s_d = (c_d + conj(c_{-d})) / a_0``: one correlation of
    length N. ``sums`` raises :class:`numpy.linalg.LinAlgError` if ``M`` is
    not numerically positive definite.
    """
    lag_of = _lag_table(N)
    half_weight = (N - 2.0 * np.arange(N)) / 2.0
    first = np.zeros(N, dtype=complex)
    first[0] = 1.0

    def sums(t):
        # t[|m - n|] is M in the lower triangle, the only one the Cholesky
        # solve reads; the transpose hands it column-major memory to overwrite.
        a = _cholesky_solve(t[lag_of].T, first, "Toeplitz resolvent", overwrite_a=True)
        c = np.correlate(half_weight * a, a, "full")
        return (c[N - 1:] + c[N - 1::-1].conj()) / a[0].real

    return sums


def _anderson(step, gamma, tol, max_iter):
    """Find the fixed point of ``step`` from ``gamma`` by safeguarded Anderson acceleration.

    Each iteration evaluates ``step`` once: at the plain (Picard) point, the
    last image ``g``, or at the Anderson extrapolate
    ``g - dG c``, where ``c`` fits the current residual ``f = g - gamma``
    by the last HISTORY residual differences ``dF`` in least squares (the
    fit of ``np.linalg.lstsq`` with ``rcond=None``, by
    ``linalg._least_squares``) and ``dG`` holds the matching image
    differences. An extrapolate is rejected, and the history restarted from
    the plain point, when it is not finite,
    has a negative entry (where the resolvent need not be definite) or
    raises the largest per-user relative residual ``|f_k| / (1 + g_k)``.
    Measured that way, the overshoot that full load needs far below the
    root counts as progress, and one large user cannot mask the others: on
    the absolute residual the run crawled at N = K and cycled at 80 dB and
    ``rho = 0.99``, where the users' gamma span 9e2 to 6e4.

    A plain step that lowers the residual estimates the contraction factor
    ``L`` as the ratio of the two residuals. Near the rounding floor that
    ratio is noise, so ``L`` is fixed by the first plain step taken from a
    residual within ``FLOOR * (1 + max g)``: close enough to the solution
    for its Jacobian, far enough above the floor for a precise ratio. The
    first iterate within that distance is followed by such a step.

    The run stops at a plain step whose residual and
    ``residual * L / (1 - L)`` are both within ``tol * (1 + max g)``; an
    extrapolate that passes with the current ``L`` is followed by a plain
    step to check it. Rounding leaves a residual of a few ulps of gamma that
    no step removes: once the smallest residual is within
    ``FLOOR * (1 + max g)`` and has not fallen for STALL steps, the run
    returns the iterate with the smallest residual, whose ``error_bound``
    may then exceed the tolerance, as may the rounding floor reported for a
    residual of exactly 0.
    """
    g = step(gamma)
    f = g - gamma
    res = float(np.abs(f).max())
    if not math.isfinite(res):
        raise FixedPointError(
            "fixed point iterate is not finite at iteration 1", residual=res, iterations=1
        )
    it = 1
    # The last HISTORY image and residual differences, oldest first, in the
    # first ``m`` rows.
    d_g, d_f = np.empty((2, HISTORY, g.size))
    m = 0
    fit = _least_squares(g.size, HISTORY)
    contraction = math.nan
    probed = False
    plain = True
    relative = np.abs(f / (1.0 + g)).max()
    best_g, best_res, stalled = g, res, 0

    def bound_of(residual):
        if residual == 0.0:
            return 0.0
        return residual * contraction / (1.0 - contraction) if contraction < 1.0 else math.inf

    def solution(gamma, residual):
        # A zero residual stops the run, but it bounds only the rounding of
        # the step: report that floor (inf while L is unknown), not 0.
        if residual != 0.0:
            bound = bound_of(residual)
        elif contraction < 1.0:
            bound = EPS * (1.0 + float(gamma.max())) / (1.0 - contraction)
        else:
            bound = math.inf
        return AsymptoticSolution(gamma, it, residual, contraction, bound)

    while True:
        scale = 1.0 + g.max()
        bound = bound_of(res)
        if plain and max(res, bound) <= tol * scale:
            return solution(g, res)
        if stalled >= STALL and best_res <= FLOOR * (1.0 + best_g.max()):
            return solution(best_g, best_res)
        if it >= max_iter:
            raise FixedPointError(
                f"fixed point did not converge within {max_iter} iterations "
                f"(last residual {res:.3e}, tol {tol:.1e})",
                residual=res,
                iterations=it,
            )
        probe = not probed and res <= FLOOR * scale
        check = max(res, bound if contraction < 1.0 else 0.0) <= tol * scale
        x, extrapolated = g, False
        if m and not (probe or check):
            coef = fit(d_f[:m].T, f)
            x = g - d_g[:m].T @ coef
            extrapolated = bool(np.isfinite(x).all() and x.min() >= 0.0)
            if not extrapolated:
                x = g
                m = 0
        g_new = step(x)
        it += 1
        f_new = g_new - x
        res_new = float(np.abs(f_new).max())
        relative_new = np.abs(f_new / (1.0 + g_new)).max()
        if extrapolated and not relative_new <= relative:
            m = 0
            stalled += 1
            continue
        if not math.isfinite(res_new):
            raise FixedPointError(
                f"fixed point iterate is not finite at iteration {it}",
                residual=res_new,
                iterations=it,
            )
        if m == HISTORY:
            d_g[:-1], d_f[:-1] = d_g[1:], d_f[1:]
            m -= 1
        np.subtract(g_new, g, out=d_g[m])
        np.subtract(f_new, f, out=d_f[m])
        m += 1
        if not extrapolated and not probed:
            if 0.0 < res_new < res:
                contraction = res_new / res
            probed = res <= FLOOR * scale
        g, f, res, relative, plain = g_new, f_new, res_new, relative_new, not extrapolated
        if res < best_res:
            best_g, best_res, stalled = g, res, 0
        else:
            stalled += 1


def gamma_uncorrelated(x, eta):
    """Closed-form deterministic SLNR for uncorrelated channels.

    The scalar fixed point ``gamma = x / (1/(1+gamma) + eta)`` solved by the
    nonnegative root of ``eta g^2 + b g - x = 0`` with ``b = eta + (1 - x)``:

        gamma = (-b + sqrt(b^2 + 4 eta x)) / (2 eta).

    Accepts scalars or arrays (broadcasting); evaluated through the
    conjugate-pair rewrite when ``b > 0`` so large-``eta`` inputs do not
    lose precision to cancellation. ``b`` is grouped so that it is exactly
    ``eta`` at full load (``x = 1``), where ``(eta - x) + 1`` would round
    ``eta`` away at high SNR. Python floats (``np.float64`` included) take
    the same steps in plain float arithmetic: they use only ``+ * / sqrt``,
    so the bits are those of the array form, without its per-call cost.
    """
    if isinstance(x, float) and isinstance(eta, float):
        if not 0.0 <= x < math.inf:
            raise ValueError(f"x must be nonnegative and finite, got {x!r}")
        check_positive_finite(eta, "eta")
        b = eta + (1.0 - x)
        disc = math.sqrt(b * b + 4.0 * eta * x)
        return 2.0 * x / (b + disc) if b > 0.0 else (disc - b) / (2.0 * eta)
    x_arr = np.asarray(x)
    # A bool would pass for 0 or 1. NaN carries through min and max, and
    # ``initial`` keeps an empty x valid; two reductions, no temporary array.
    low, high = x_arr.min(initial=0.0), x_arr.max(initial=0.0)
    if x_arr.dtype == bool or not (low >= 0.0 and high < math.inf):
        raise ValueError(f"x must be nonnegative and finite, got {x!r}")
    eta_arr = np.asarray(eta, dtype=float)
    check_positive_finite(eta, "eta")
    b = eta_arr + (1.0 - x_arr)
    disc = np.sqrt(b * b + 4.0 * eta_arr * x_arr)
    # Where b > 0 the direct numerator -b + disc cancels; multiply through
    # by the conjugate to get the equivalent stable form 2x / (b + disc).
    # Where b <= 0 that form is discarded, and b + disc may round to 0.
    with np.errstate(divide="ignore"):
        out = np.where(b > 0.0, 2.0 * x_arr / (b + disc), (disc - b) / (2.0 * eta_arr))
    if out.ndim == 0:
        return float(out)
    return out


def _brent_rtol(tol):
    """Relative tolerance of :func:`gamma_common_r`'s root search."""
    return max(tol, 4.0 * EPS)


def _brentq(f, a, b, xtol, rtol, maxiter):
    """Root of ``f`` in the sign bracket ``[a, b]`` by Brent's method.

    Returns ``(root, iterations, converged)``. A step-for-step port, in
    Python floats, of ``brentq`` in scipy's ``scipy/optimize/Zeros/brentq.c``
    (BSD-3-Clause, copyright the SciPy developers), after R. P. Brent,
    *Algorithms for Minimization Without Derivatives* (1973), ch. 4. The
    operations and their order are scipy's, so the iterates, the root and
    the iteration count are bit for bit those of
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)``.
    The search stops once the bracket half-width is below
    ``(xtol + rtol * |root|) / 2`` or ``f`` is exactly 0; after ``maxiter``
    iterations it returns the last iterate with ``converged`` False. A NaN
    value of ``f``, or ends of the same sign, raise ``ValueError``.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x={x!r} is NaN; the root search stops")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0, True
    if fcur == 0.0:
        return xcur, 0, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for it in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, it, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # Secant (linear interpolation).
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # Inverse quadratic extrapolation.
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # Where Python raises, C's division gives inf or NaN, which
                # the step test below rejects in favour of bisection.
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    return xcur, maxiter, False


def gamma_common_r(eigenvalues, K, eta, tol=DEFAULT_TOL):
    """Scalar deterministic SLNR when every user shares one correlation matrix.

    With eigenvalues ``lam_1..lam_N`` of the shared matrix (trace N), the
    SLNR is the fixed point of

        gamma = T(gamma) = sum_n 1 / (K/(1+gamma) + K*eta/lam_n).

    ``T`` is increasing, ``T(0) > 0`` and ``T(gamma) < sum_n lam_n / (K eta)``,
    so ``[0, sum_n lam_n / (K eta)]`` brackets the one root of
    ``T(gamma) - gamma``. Brent's method (:func:`_brentq`, the library's
    port of scipy's ``brentq``) finds it within
    ``tol + max(tol, 4 eps) * gamma``, on either side, in a few dozen
    evaluations, also at full load and high SNR, where the contraction
    factor of ``T`` tends to 1 and plain iteration of the map stalls.
    ``DEFAULT_MAX_ITER`` caps Brent's iterations.
    Zero eigenvalues contribute zero to the sum (the continuous limit of
    the summand), so rank-deficient inputs do not crash.
    """
    lam = check_vector(eigenvalues, "eigenvalues")
    N = lam.size
    spectral = float(np.max(np.abs(lam)))
    if np.any(lam < -1e-10 * max(spectral, 1.0)):
        raise ValueError(f"eigenvalues must be nonnegative, got min {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    total = float(np.sum(lam))
    if abs(total - N) > 1e-6 * N:
        raise ValueError(f"eigenvalues must sum to N={N} (trace normalization), got {total!r}")
    check_count(K, "K")
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")

    hi = total / (K * eta)
    if not math.isfinite(hi):
        raise FixedPointError(
            f"scalar fixed point overflows: its bracket end sum(eigenvalues)/(K eta) is {hi}",
            residual=math.inf,
            iterations=0,
        )

    def excess(gamma):
        # T(gamma) - gamma, written with u = 1 + gamma as
        # 1 + u (N/K - 1) - (u/K) sum_n eta u / (lam_n + eta u): at full load
        # T(gamma) and gamma agree to the slope 1 - T' of the map, so their
        # difference would lose the root to rounding at high SNR.
        u = 1.0 + gamma
        s = eta * u
        return 1.0 + u * (N / K - 1.0) - (u / K) * float((s / (lam + s)).sum())

    max_iter = DEFAULT_MAX_ITER
    gamma, iterations, converged = _brentq(excess, 0.0, hi, tol, _brent_rtol(tol), max_iter)
    if not converged:
        raise FixedPointError(
            f"scalar fixed point did not converge within {max_iter} iterations "
            f"(tol {tol:.1e})",
            residual=abs(excess(gamma)),
            iterations=iterations,
        )
    return gamma


def _even_mean_eigenvalues(N, K, rho):
    """Ascending eigenvalues of the exp-even user average, ``rho^|m-n|`` for K = 1.

    That matrix is a direct sum of KMS blocks in ``rho^K`` (see the module
    docstring); each block size's eigenvalues are computed once and repeated
    once per block. A solver that does not converge raises
    :class:`EigConvergenceError` naming N.
    """
    check_count(N, "N")
    check_count(K, "K")
    rho = check_rho(rho)
    size, longer = divmod(N, K)
    r = rho ** K
    blocks = ((size + 1, longer), (size, K - longer))
    try:
        parts = [np.tile(_kms_eigenvalues(n, r), count) for n, count in blocks if n and count]
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(
            f"eigenvalues did not converge for a {N}x{N} real symmetric Toeplitz matrix"
        ) from exc
    return np.sort(np.concatenate(parts))


@one_blas_thread
def gamma_exp_even(N, K, rho, eta, tol=DEFAULT_TOL):
    """Deterministic SLNR shared by every user of the exp-even profile.

    Every ``gamma_k`` is equal (see the module docstring), so averaging the
    system over k leaves the fixed point of :func:`gamma_common_r` over the
    eigenvalues of the user average ``(1/K) sum_k R_k``: those of at most
    two KMS blocks of about N/K rows, in place of K dense matrices.
    """
    return gamma_common_r(_even_mean_eigenvalues(N, K, rho), K, eta, tol=tol)


@one_blas_thread
def gamma_exp_common(N, K, rho, eta, tol=DEFAULT_TOL):
    """Deterministic SLNR shared by K users with one exponential correlation.

    Every user has ``R[m, n] = rho^|m-n| exp(1j (m-n) theta)`` for one
    phase ``theta``. That is ``D R_0 D*`` with ``D = diag(exp(1j m theta))``
    unitary, so its eigenvalues are those of the real KMS matrix
    ``R_0[m, n] = rho^|m-n|`` for every ``theta``, and the value is the
    fixed point of :func:`gamma_common_r` over them.
    """
    return gamma_common_r(_even_mean_eigenvalues(N, 1, rho), K, eta, tol=tol)
