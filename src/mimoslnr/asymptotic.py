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
49(4), 2011). It stops once the residual and a bound on the distance to the
fixed point, from the norm of the step's nonnegative Jacobian in weights
``1 + gamma``, are within the tolerance, or once rounding stops the residual
from falling. The fixed point is unique (Wagner, Couillet, Debbah & Slock,
IEEE Trans. IT 58(7), 2012), so the start only sets the path: all zeros for
the dense reference, and for the Toeplitz solver the uncorrelated closed
form, exact at ``rho = 0``, or, inside the correlation sweep, the gammas
carried from one ``rho`` to the next.
Special cases reduce the system:

- uncorrelated channels (``R_k = I``) admit the closed form implemented in
  :func:`gamma_uncorrelated`;
- a correlation matrix shared by all users reduces to a scalar fixed point
  over its eigenvalues (:func:`gamma_common_r`), whose value never exceeds
  the uncorrelated one, the start of its safeguarded Newton search;
- the exponential model ``R_k[m, n] = rho^|m-n| exp(1j (m-n) theta_k)``
  makes ``sum_j R_j / (1 + gamma_j)`` a Hermitian Toeplitz matrix set by N
  lags, so :func:`solve_exponential_fixed_point` solves the system on those
  lags for any phases, without forming the K matrices ``R_k`` or any N x N
  matrix. One Levinson-Durbin recursion per step (scipy's compiled
  ``levinson``, O(N^2)) gives the first column of the inverse and
  certifies that M is positive definite, and the Gohberg-Semencul formula
  turns that column into the inverse's diagonal sums;
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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import one_blas_thread
from .channel import check_count, check_positive_finite, check_rho, check_vector
from .linalg import EigConvergenceError, _kms_eigenvalues, _least_squares, _toeplitz_predictor

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
# Cap on step evaluations of the vector solvers and on evaluations of the
# scalar map's excess; read at call time.
DEFAULT_MAX_ITER = 10000
# Anderson acceleration extrapolates from this many past steps.
HISTORY = 5
# Within FLOOR * (1 + max gamma) of a fixed point the contraction factor is
# measured, and a residual there that has not fallen for STALL steps sits on
# the rounding floor of the step: the run stops.
STALL = 5
EPS = float(np.finfo(float).eps)
FLOOR = math.sqrt(EPS)
# Half the largest double: the Toeplitz sums' trace 2 Re c_0 / e is finite while
# Re c_0 / _HALF_MAX < e (see _toeplitz_inverse_sums).
_HALF_MAX = float(np.finfo(float).max) / 2.0
# A scalar root search's rounding floor, in eps times the magnitude of its terms.
_FLOOR_ULPS = 4.0


class FixedPointError(RuntimeError):
    """Fixed-point iteration hit the iteration cap or a non-finite iterate."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class AsymptoticSolution:
    """Deterministic SLNR values with solver diagnostics.

    ``gamma`` is the image ``step(x)`` of the last iterate ``x``, ``residual``
    is ``max_k |f_k|`` with ``f = gamma - x``, ``contraction`` the Picard
    map's contraction factor ``L`` (finite), the norm of its Jacobian in
    weights ``v = 1 + x`` near the solution (see :func:`_anderson`), and
    ``error_bound`` the first-order bound ``L / (1 - L) max_k v_k max_k
    |f_k| / v_k`` on ``max_k`` of the distance to the fixed point (inf when
    ``L >= 1``). The bound leaves out
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
def solve_exponential_fixed_point(N, rho, theta, eta, tol=DEFAULT_TOL):
    """Solve the coupled system for exponential profiles with per-user phases.

    The users' matrices are ``R_k[m, n] = rho^|m-n| exp(1j (m-n) theta_k)``.
    Safeguarded Anderson acceleration of the Picard step (see
    :func:`_anderson`) runs from the uncorrelated closed form
    ``gamma_uncorrelated(N/K, eta)`` for every user, exact at ``rho = 0``;
    the solution does not depend on the path. No ``R_k`` is formed:
    ``M = sum_k w_k R_k + K eta I`` with ``w_k = 1/(1 + gamma_k)`` is
    Hermitian Toeplitz with lags

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
        Positive finite relative tolerance: the run stops once both the
        residual and the error bound are within ``tol * (1 + max_k gamma_k)``,
        or on the rounding floor.

    Returns
    -------
    AsymptoticSolution

    Raises
    ------
    ValueError
        If an argument is invalid.
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
    return _solve_toeplitz(_phase_table(N, theta), rho, eta, tol, None)


def _phase_table(N, theta):
    """The (K, N) table ``exp(1j d theta_k)`` over the lags ``d`` and the users' phases.

    The exponent is built complex and exponentiated in place, so only one
    K x N table is ever alive: it is the route's one O(KN) array, which
    :func:`_solve_toeplitz` reads both ways.
    """
    table = np.multiply.outer(theta, 1j * np.arange(N))
    return np.exp(table, out=table)


def _solve_toeplitz(phase, rho, eta, tol, start):
    """:func:`solve_exponential_fixed_point` on checked inputs and the users' phase table.

    ``phase`` is :func:`_phase_table` of the phases, which does not depend
    on ``rho``: the correlation sweep builds it once per draw. The step
    reads that one table both ways, forward for the lags ``t`` and, as
    ``Re(conj(P) w) = Re(P conj(w))``, backward for ``gamma``, so a solve
    allocates no K x N array. ``start`` is
    the first iterate, K nonnegative numbers such as the solution at a
    nearby ``rho``, or ``None`` for the uncorrelated closed form.
    """
    K, N = phase.shape
    if start is None:
        start = np.full(K, gamma_uncorrelated(N / K, eta))
    lags = np.arange(N)
    decay = rho ** lags
    fold = np.where(lags > 0, 2.0, 1.0) * decay
    fold_total = float(fold.sum())
    inverse_sums = _toeplitz_inverse_sums(N)

    def step(gamma):
        t = decay * ((1.0 / (1.0 + gamma)) @ phase)
        t[0] += K * eta
        s = inverse_sums(t)
        # Every |s_d| <= s_0 and every phase has modulus 1, so s_0 * fold_total
        # bounds each partial sum of gamma_k. The bound is formed in Python
        # floats, which pass the largest double without a warning; below half
        # of it (NaN fails) the product cannot overflow. Above, gamma_k may:
        # the caller finds it not finite, and numpy is kept from warning.
        if float(s[0].real) * fold_total < _HALF_MAX:
            return (phase @ (fold * s).conj()).real
        with np.errstate(over="ignore", invalid="ignore"):
            return (phase @ (fold * s).conj()).real

    return _anderson(step, start, tol, DEFAULT_MAX_ITER)


def _toeplitz_inverse_sums(N):
    """``sums(t)``: the subdiagonal sums of ``M^{-1}`` for N x N Hermitian Toeplitz ``M``.

    ``t`` is M's first column (``M[m, n] = t[m - n]`` for ``m >= n``), and
    ``sums(t)[d]`` is the sum of the d-th subdiagonal of ``M^{-1}``. The
    Levinson-Durbin recursion (``linalg._toeplitz_predictor``, O(N^2))
    gives the first column ``a = (1, -y) / e`` of ``M^{-1}``, and the
    Gohberg-Semencul formula gives the rest of it:

        M^{-1} = (L(a) L(a)^H - L(b) L(b)^H) / a_0,   b = (0, conj(a_{N-1}), ..., conj(a_1)),

    with ``L(v)`` the lower triangular Toeplitz matrix with first column
    ``v``. Summing along the diagonals, ``b``'s term is ``a``'s with weight
    ``j``, so

        s_d = sum_j (N - d - 2j) a_{j+d} conj(a_j) / a_0.

    The weight is ``u_{j+d} + u_j`` with ``u_j = (N - 2j) / 2``, so with
    ``c_d = sum_j u_{j+d} v_{j+d} conj(v_j)`` over ``v = a / a_0 = (1, -y)``
    (``d`` from ``1 - N`` to ``N - 1``), ``s_d = (c_d + conj(c_{-d})) / e``:
    one correlation of length N. Correlating ``v`` and not ``a``, whose
    entries grow as ``1 / e`` (about ``1 / (K eta)`` at high SNR), keeps the
    products finite: ``a`` overflowed them from about 2000 dB. Every
    ``|s_d|`` is at most the trace ``s_0 = 2 Re c_0 / e``, as
    ``|X_ij| <= (X_ii + X_jj) / 2`` for positive definite ``X``; where the
    trace would pass the largest double (past about 3080 dB), ``sums`` returns
    NaN, a step value that is not finite, without dividing, so numpy warns
    of no overflow. ``sums`` raises :class:`numpy.linalg.LinAlgError` if
    ``M`` is not numerically positive definite.
    """
    half_weight = (N - 2.0 * np.arange(N)) / 2.0
    v = np.empty(N, dtype=complex)
    v[0] = 1.0

    def sums(t):
        y, e = _toeplitz_predictor(t, "Toeplitz resolvent")
        np.negative(y, out=v[1:])
        c = np.correlate(half_weight * v, v, "full")
        if not c[N - 1].real / _HALF_MAX < e:  # NaN or inf in c fails it too
            return np.full(N, np.nan)
        return (c[N - 1:] + c[N - 1::-1].conj()) / e

    return sums


def _anderson(step, gamma, tol, max_iter):
    """Find the fixed point of ``step`` from ``gamma`` by safeguarded Anderson acceleration.

    Each iteration evaluates ``step`` once: at the plain (Picard) point, the
    last image ``g``, or at the Anderson extrapolate
    ``g - dG c``, where ``c`` fits the current residual ``f = g - x`` of the
    iterate ``x`` by the last HISTORY residual differences ``dF`` in least
    squares (the fit of ``np.linalg.lstsq`` with ``rcond=None``, by
    ``linalg._least_squares``) and ``dG`` holds the matching image
    differences. An extrapolate is rejected, and the history restarted from
    the plain point, when it is not finite,
    has a negative entry (where the resolvent need not be definite) or
    raises the largest per-user relative residual ``|f_k| / (1 + g_k)``.
    Measured that way, the overshoot that full load needs far below the
    root counts as progress, and one large user cannot mask the others: on
    the absolute residual the run crawled at N = K and cycled at 80 dB and
    ``rho = 0.99``, where the users' gamma span 9e2 to 6e4.

    The Picard Jacobian ``J_kj = tr(R_k X R_j X) / (1 + x_j)^2`` (``X`` the
    resolvent) is entrywise nonnegative, so its norm in ``max_k |y_k| / v_k``
    with ``v = 1 + x`` is ``L = max_k (J v)_k / v_k``, and at any iterate,
    plain or extrapolated, ``L / (1 - L) * max_k v_k * max_k |f_k| / v_k``
    bounds ``max_k |g_k - gamma*_k|`` to first order (Yates, IEEE JSAC 13(7),
    1995). One extra evaluation of ``step`` measures ``L`` as the largest
    ``(step(x + FLOOR v) - g) / (FLOOR v)`` at the first iterate within
    ``FLOOR * (1 + max g)`` of its image, close enough to the solution for
    its Jacobian; that ``v`` weighs every later bound. As
    ``J (1 + x) = g - K eta tr(R_k X^2) <= g``, ``L <= max_k g_k / (1 + x_k)``.

    The run returns the image ``g`` of the first iterate whose residual and
    bound are both within ``tol * (1 + max g)``, or whose residual is 0.
    Rounding leaves a residual of a few ulps of gamma that no step removes:
    once the smallest residual is within ``FLOOR * (1 + max g)`` and has not
    fallen for STALL steps, the run returns the iterate with the smallest
    residual, whose ``error_bound`` may then exceed the tolerance, as may
    the rounding floor reported for a residual of exactly 0.
    """
    x, g = gamma, step(gamma)
    f = g - x
    res = float(np.abs(f).max())
    it = 1
    if not math.isfinite(res):
        raise _not_finite(res, it)
    # The last HISTORY image and residual differences, oldest first, in rows 0 to m - 1.
    d_g, d_f = np.empty((2, HISTORY, g.size))
    m = 0
    fit = _least_squares(g.size, HISTORY)
    # L and the weights v it is measured in, once an iterate comes near its image.
    contraction, weights = math.inf, None
    relative = np.abs(f / (1.0 + g)).max()
    best_g, best_f, best_res, stalled = g, f, res, 0

    def solution(g, f, residual):
        # A zero residual bounds only the rounding of the step: report that floor, not 0.
        # Python floats, so a bound past the largest double is inf without a numpy warning.
        if not contraction < 1.0:
            bound = math.inf
        elif residual == 0.0:
            bound = EPS * (1.0 + float(g.max())) / (1.0 - contraction)
        else:
            bound = (contraction / (1.0 - contraction) * float(weights.max())
                     * float(np.abs(f / weights).max()))
        return AsymptoticSolution(g, it, residual, contraction, bound)

    while True:
        scale = 1.0 + g.max()
        if weights is None and res <= FLOOR * scale:
            weights = 1.0 + x
            delta = FLOOR * weights
            contraction = max(float(((step(x + delta) - g) / delta).max()), 0.0)
            it += 1
            if not math.isfinite(contraction):
                raise _not_finite(contraction, it)
        if res <= tol * scale:
            sol = solution(g, f, res)
            if res == 0.0 or sol.error_bound <= tol * scale:
                return sol
        if stalled >= STALL and best_res <= FLOOR * (1.0 + best_g.max()):
            return solution(best_g, best_f, best_res)
        if it >= max_iter:
            raise FixedPointError(
                f"fixed point did not converge within {max_iter} iterations "
                f"(last residual {res:.3e}, tol {tol:.1e})",
                residual=res,
                iterations=it,
            )
        x_new, extrapolated = g, False
        if m:
            coef = fit(d_f[:m].T, f)
            x_new = g - d_g[:m].T @ coef
            extrapolated = bool(np.isfinite(x_new).all() and x_new.min() >= 0.0)
            if not extrapolated:
                x_new = g
                m = 0
        g_new = step(x_new)
        it += 1
        f_new = g_new - x_new
        res_new = float(np.abs(f_new).max())
        relative_new = np.abs(f_new / (1.0 + g_new)).max()
        if extrapolated and not relative_new <= relative:
            m = 0
            stalled += 1
            continue
        if not math.isfinite(res_new):
            raise _not_finite(res_new, it)
        if m == HISTORY:
            d_g[:-1], d_f[:-1] = d_g[1:], d_f[1:]
            m -= 1
        np.subtract(g_new, g, out=d_g[m])
        np.subtract(f_new, f, out=d_f[m])
        m += 1
        x, g, f, res, relative = x_new, g_new, f_new, res_new, relative_new
        if res < best_res:
            best_g, best_f, best_res, stalled = g, f, res, 0
        else:
            stalled += 1


def _not_finite(residual, iterations):
    return FixedPointError(
        f"fixed point iterate is not finite at iteration {iterations}", residual, iterations
    )


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
    check_positive_finite(eta, "eta")
    eta_arr = np.asarray(eta, dtype=float)
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


class _Root(NamedTuple):
    """A root with its certificate, the bracket ``lo <= root <= hi`` (see :func:`_newton_root`)."""

    root: float
    lo: float
    hi: float
    evaluations: int


def _newton_root(fdf, lo, hi, x, xtol, rtol, max_iter):
    """Root of ``f`` in ``[lo, hi]``, where ``f(lo) > 0 > f(hi)``, by safeguarded Newton from ``x``.

    ``fdf(x)`` returns ``f(x)``, ``f'(x)`` and the summed magnitude of the
    terms of ``f(x)``, which times ``_FLOOR_ULPS * eps`` is its rounding
    floor. Each evaluation moves the bracket end on its side; the next point
    is the Newton point if inside the bracket, else the midpoint. Newton
    from one side of a concave root never crosses it, so a Newton step
    shorter than half the tolerance ``xtol + rtol * |x|`` is followed by a
    point that far beyond the Newton point, to close the bracket around it.
    Returns a point of a bracket within the tolerance of it, or, as its own
    bracket, a point where ``f`` is within its rounding floor. Raises
    :class:`FixedPointError` after ``max_iter`` evaluations or at a
    non-finite ``f``.
    """
    estimate = x
    for evaluations in range(1, max_iter + 1):
        f, df, scale = fdf(x)
        if not math.isfinite(f):
            raise FixedPointError(f"scalar root search met {f} at {x!r}", f, evaluations)
        if abs(f) <= _FLOOR_ULPS * EPS * scale:
            return _Root(x, x, x, evaluations)
        lo, hi = (x, hi) if f > 0.0 else (lo, x)
        estimate = min(max(estimate, lo), hi)
        if hi - lo <= xtol + rtol * abs(estimate):
            return _Root(estimate, lo, hi, evaluations)
        step = -f / df if df else math.inf
        estimate = x = x + step
        half = 0.5 * (xtol + rtol * abs(estimate))
        beyond = estimate + math.copysign(half, step)
        if abs(step) <= half and lo < beyond < hi:
            x = beyond
        elif not (lo < estimate < hi and abs(step) > half):
            estimate = x = 0.5 * (lo + hi)
    raise FixedPointError(
        f"scalar fixed point did not converge within {max_iter} iterations "
        f"(bracket [{lo!r}, {hi!r}])", hi - lo, max_iter,
    )


def gamma_common_r(eigenvalues, K, eta, tol=DEFAULT_TOL):
    """Scalar deterministic SLNR when every user shares one correlation matrix.

    With eigenvalues ``lam_1..lam_N`` of the shared matrix (trace N), the
    SLNR is the fixed point of

        gamma = T(gamma) = sum_n 1 / (K/(1+gamma) + K*eta/lam_n).

    Each summand ``lam u / (K (lam + eta u))`` is increasing and concave in
    ``u = 1 + gamma`` and concave in ``lam``. So ``T(gamma) - gamma`` is
    concave, positive at 0 and negative beyond its one root, and by
    Jensen's inequality the root is at most ``gamma_uncorrelated(N/K, eta)``.
    Safeguarded Newton (:func:`_newton_root`) starts at that upper bound in
    the sign bracket ``[0, sum_n lam_n / (K eta)]``. The value it returns
    is certified within ``tol + max(tol, 4 eps) * gamma`` of the root by a
    sign bracket that wide, or is a point where ``T(gamma) - gamma`` is
    within its rounding floor (as at very low SNR), which no evaluation can
    resolve further. ``DEFAULT_MAX_ITER`` caps the evaluations.
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
    return _scalar_fixed_point(lam, np.ones(N), K, eta, tol).root


def _scalar_fixed_point(values, counts, K, eta, tol):
    """:func:`gamma_common_r`'s :class:`_Root` over checked ``values``, counted ``counts`` times."""
    check_count(K, "K")
    check_positive_finite(eta, "eta")
    check_positive_finite(tol, "tol")
    hi = float(counts @ values) / (K * eta)
    if not math.isfinite(hi):
        raise FixedPointError(
            f"scalar fixed point overflows: its bracket end sum(eigenvalues)/(K eta) is {hi}",
            math.inf, 0,
        )
    start = min(gamma_uncorrelated(float(counts.sum()) / K, float(eta)), hi)
    excess = _scalar_excess(values, counts, K, eta)
    return _newton_root(excess, 0.0, hi, start, tol, max(tol, 4.0 * EPS), DEFAULT_MAX_ITER)


def _scalar_excess(values, counts, K, eta):
    """``gamma -> (T(gamma) - gamma, T'(gamma) - 1, its terms' magnitude)``, for the root search."""
    load = float(counts.sum()) / K - 1.0

    def excess(gamma):
        # With u = 1 + gamma, s = eta u and q = s / (lam + s), the excess is
        # 1 + u (N/K - 1) - (u/K) sum q: at full load T(gamma) - gamma would
        # lose the root to rounding at high SNR, where T' tends to 1. Nor does
        # the slope (N/K - 1) - sum q (2 - q) / K cancel.
        u = 1.0 + gamma
        s = eta * u
        q = s / (values + s)
        spread = u * load
        drop = (u / K) * float(counts @ q)
        slope = load - float(counts @ (q * (2.0 - q))) / K
        return 1.0 + spread - drop, slope, 1.0 + abs(spread) + drop

    return excess


def _even_mean_eigenvalues(N, K, rho):
    """``(values, counts)``: the eigenvalues of the exp-even user average (``rho^|m-n|`` for K = 1).

    That matrix is a direct sum of KMS blocks in ``rho^K`` (see the module
    docstring): each block size's eigenvalues come once, counted once per
    block. A solver that does not converge raises
    :class:`EigConvergenceError` naming N.
    """
    check_count(N, "N")
    check_count(K, "K")
    rho = check_rho(rho)
    size, longer = divmod(N, K)
    r = rho ** K
    blocks = [(n, count) for n, count in ((size + 1, longer), (size, K - longer)) if n and count]
    try:
        values = np.concatenate([_kms_eigenvalues(n, r) for n, _ in blocks])
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(
            f"eigenvalues did not converge for a {N}x{N} real symmetric Toeplitz matrix"
        ) from exc
    return values, np.concatenate([np.full(n, float(count)) for n, count in blocks])


@one_blas_thread
def _exp_root(N, K, rho, eta, tol, period):
    """:func:`_scalar_fixed_point` of K users over ``_even_mean_eigenvalues(N, period, rho)``."""
    return _scalar_fixed_point(*_even_mean_eigenvalues(N, period, rho), K, eta, tol)


def gamma_exp_even(N, K, rho, eta, tol=DEFAULT_TOL):
    """Deterministic SLNR shared by every user of the exp-even profile.

    Every ``gamma_k`` is equal (see the module docstring), so averaging the
    system over k leaves the fixed point of :func:`gamma_common_r` over the
    eigenvalues of the user average ``(1/K) sum_k R_k``: those of at most
    two KMS blocks of about N/K rows, in place of K dense matrices.
    """
    return _exp_root(N, K, rho, eta, tol, K).root


def gamma_exp_common(N, K, rho, eta, tol=DEFAULT_TOL):
    """Deterministic SLNR shared by K users with one exponential correlation.

    Every user has ``R[m, n] = rho^|m-n| exp(1j (m-n) theta)`` for one
    phase ``theta``. That is ``D R_0 D*`` with ``D = diag(exp(1j m theta))``
    unitary, so its eigenvalues are those of the real KMS matrix
    ``R_0[m, n] = rho^|m-n|`` for every ``theta``, and the value is the
    fixed point of :func:`gamma_common_r` over them.
    """
    return _exp_root(N, K, rho, eta, tol, 1).root
