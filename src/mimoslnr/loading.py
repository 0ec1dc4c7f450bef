"""Optimal user loading for the symmetric uncorrelated regime.

The rate per antenna at loading ratio ``x = N/K >= 1`` is

    f(x, eta) = log(1 + gamma(x, eta)) / x,

with ``gamma`` the uncorrelated deterministic SLNR. ``f`` has a single
interior maximizer ``x_star(eta)`` whenever its derivative at ``x = 1`` is
positive, which happens exactly for ``eta`` below a threshold ``eta_o``
(about 0.3256); above the threshold the optimum clamps to ``x_star = 1``.
Closed-form approximations cover the two ends of the SNR range: a Taylor
form just below the threshold and a Lambert-W form for small ``eta``.

Rates are natural-log throughout; a positive constant factor does not move
the maximizer, and callers wanting bits divide by ``log(2)``.

Scalar inputs given as Python floats (``np.float64`` included) run on
``math`` and plain float arithmetic rather than on 0-d numpy arrays: the
root finder evaluates the derivative about 30 times per SNR point, and one
evaluation on 0-d arrays costs more than ten times as much as on floats.
It calls the float kernel of :func:`dfdx` directly, having checked ``eta``
once.
Arrays keep the numpy form, which is also the fallback for any scalar that
``math`` would reject (``x = 0``).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotic import _brentq, gamma_uncorrelated
from .channel import check_positive_finite, check_positive_number

__all__ = [
    "LoadingSolution",
    "LoadingConstants",
    "BracketError",
    "EXACT_ROOT_FIND",
    "CLAMPED_AT_ONE",
    "X_UPPER_LOOSE",
    "objective_f",
    "dfdx",
    "optimal_x_exact",
    "optimal_x_low_snr",
    "optimal_x_high_snr",
    "lambert_w0",
    "eta_threshold",
    "x_upper_tight",
    "loading_constants",
]

EXACT_ROOT_FIND = "exact-root-find"
CLAMPED_AT_ONE = "clamped-at-one"

# Loose upper bound on the optimal loading ratio: 3*(2*sqrt(3) - 3).
X_UPPER_LOOSE = 3.0 * (2.0 * math.sqrt(3.0) - 3.0)

# Default root tolerance of optimal_x_exact; the loading sweep runs at it
# and echoes it into its CSV metadata.
LOADING_TOL = 1e-10

_INV_E = math.exp(-1.0)


class BracketError(RuntimeError):
    """Root bracketing failed; indicates an internal inconsistency."""


@dataclass(frozen=True)
class LoadingSolution:
    """Optimal loading ratio ``x_star = N/K`` and how it was obtained."""

    x_star: float
    alpha_star: float
    objective: float
    method: str
    eta: float


@dataclass(frozen=True)
class LoadingConstants:
    """Reference constants of the loading problem, all computed at runtime."""

    eta_o: float
    x_ub_tight: float
    x_ub_loose: float
    snr_threshold_db: float


def objective_f(x, eta):
    """Rate per antenna ``log(1 + gamma(x, eta)) / x`` in nats."""
    if isinstance(x, float) and isinstance(eta, float):
        return float(np.log1p(gamma_uncorrelated(x, eta)) / x)
    x_arr = np.asarray(x, dtype=float)
    out = np.log1p(gamma_uncorrelated(x_arr, eta)) / x_arr
    if out.ndim == 0:
        return float(out)
    return out


def dfdx(x, eta):
    """First derivative of :func:`objective_f` in ``x``.

    With ``u = x + eta - 1`` and ``s = sqrt(u^2 + 4 eta)``:

        df/dx = 1 / (x s) - log((u + s) / (2 eta)) / x^2.

    The log argument equals ``1 + gamma`` and is positive for any
    ``eta > 0``, so the expression is defined on the whole region of
    interest.

    Python floats are evaluated with ``math`` (see the module docstring).
    Where ``math`` raises instead of answering (``x = 0``, or a log
    argument that rounds to 0) the numpy form answers, with its ``nan`` or
    ``inf``.
    """
    check_positive_finite(eta, "eta")
    if isinstance(x, float) and isinstance(eta, float):
        try:
            return _dfdx_float(x, eta)
        except (ZeroDivisionError, ValueError):
            pass
    x_arr = np.asarray(x, dtype=float)
    eta_arr = np.asarray(eta, dtype=float)
    u = x_arr + eta_arr - 1.0
    s = np.sqrt(u * u + 4.0 * eta_arr)
    out = 1.0 / (x_arr * s) - np.log((u + s) / (2.0 * eta_arr)) / (x_arr * x_arr)
    if out.ndim == 0:
        return float(out)
    return out


def _dfdx_float(x, eta):
    """:func:`dfdx` on Python floats, unchecked; the bisection's inner call.

    For ``x >= 1`` and a positive finite ``eta`` every operation is defined:
    ``s > 0``, the log argument is positive, and an overflow gives ``inf``
    rather than an exception.
    """
    u = x + eta - 1.0
    s = math.sqrt(u * u + 4.0 * eta)
    return 1.0 / (x * s) - math.log((u + s) / (2.0 * eta)) / (x * x)


@lru_cache(maxsize=1)
def eta_threshold():
    """Inverse-SNR threshold below which the optimal loading ratio exceeds 1.

    Root of ``sqrt(eta^2 + 4 eta) * log((eta + sqrt(eta^2 + 4 eta)) /
    (2 eta)) - 1 = 0``, i.e. the ``eta`` at which df/dx vanishes at
    ``x = 1``. Solved at first use rather than hard-coded, by the library's
    Brent root finder (:func:`mimoslnr.asymptotic._brentq`, a bit-for-bit
    port of scipy's ``brentq``) with scipy's default cap of 100 iterations.
    """

    def g(eta):
        s = math.sqrt(eta * eta + 4.0 * eta)
        return s * math.log((eta + s) / (2.0 * eta)) - 1.0

    return _brentq(g, 0.05, 1.0, 1e-14, 8.9e-16, 100)[0]


def optimal_x_exact(eta, tol=LOADING_TOL):
    """Maximize the per-antenna rate over ``x >= 1`` by derivative bisection.

    At or above :func:`eta_threshold` the optimum is clamped at 1 (the sign
    of df/dx at ``x = 1``, which cancels above ``eta`` ~ 5e7, is not used).
    Otherwise the unique root of df/dx lies strictly inside
    ``[1, 3*(2*sqrt(3) - 3)]``, giving a guaranteed sign bracket; bisection
    runs until the interval is shorter than ``tol`` or, for a ``tol`` below
    the float spacing there, until the midpoint rounds onto an endpoint.
    """
    eta = float(check_positive_number(eta, "eta"))
    check_positive_finite(tol, "tol")
    if eta >= eta_threshold():
        return LoadingSolution(
            x_star=1.0,
            alpha_star=1.0,
            objective=objective_f(1.0, eta),
            method=CLAMPED_AT_ONE,
            eta=eta,
        )
    lo, hi = 1.0, X_UPPER_LOOSE
    # eta is checked above, so the bisection calls the unchecked kernel.
    if _dfdx_float(hi, eta) >= 0.0:
        raise BracketError(
            f"derivative not negative at x={hi!r} for eta={eta!r}; no sign bracket"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _dfdx_float(mid, eta) > 0.0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    return LoadingSolution(
        x_star=x_star,
        alpha_star=1.0 / x_star,
        objective=objective_f(x_star, eta),
        method=EXACT_ROOT_FIND,
        eta=eta,
    )


def optimal_x_low_snr(eta):
    """Taylor approximation of the optimal ratio just below the threshold.

    ``x_star ~= c + sqrt(c^2 - (1 - 2c) (eta + 3))`` with
    ``c = 1 - sqrt(eta^2 + 4 eta) * log((eta + sqrt(eta^2 + 4 eta)) /
    (2 eta)) / 2``. At the threshold ``c = 1/2`` and the value is exactly 1.
    """
    check_positive_number(eta, "eta")
    s = math.sqrt(eta * eta + 4.0 * eta)
    c = 1.0 - 0.5 * s * math.log((eta + s) / (2.0 * eta))
    disc = c * c - (1.0 - 2.0 * c) * (eta + 3.0)
    if disc < 0.0:
        raise ValueError(
            f"eta={eta!r} is outside the approximation regime (negative discriminant)"
        )
    return c + math.sqrt(disc)


def optimal_x_high_snr(eta):
    """Lambert-W approximation of the optimal ratio for small ``eta``.

    ``x_star = 1 - eta + eta * exp(1 + W((1 - eta) / (eta e)))`` with W the
    principal branch. Tends to 1 as ``eta -> 0`` and increases with ``eta``.
    """
    check_positive_number(eta, "eta")
    if not eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta!r}")
    w = lambert_w0((1.0 - eta) / (eta * math.e))
    return 1.0 - eta + eta * math.exp(1.0 + w)


def lambert_w0(z):
    """Principal branch of the Lambert W function for real ``z >= -1/e``.

    Halley iteration on ``w e^w = z``, started from ``log z - log log z``
    for large ``z``, a series guess near zero, and the branch-point
    expansion near ``-1/e``. Converges to residual
    ``|w e^w - z| <= 1e-12 * max(1, |z|)``.
    """
    z = float(z)
    if z < -_INV_E:
        raise ValueError(f"lambert_w0 requires z >= -1/e, got {z!r}")
    if z == 0.0:
        return 0.0
    if z > math.e:
        w = math.log(z) - math.log(math.log(z))
    elif z > -0.25:
        w = z * (1.0 - z + 1.5 * z * z)
    else:
        # Expansion around the branch point z = -1/e, w = -1.
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0
    target = 1e-12 * max(1.0, abs(z))
    for _ in range(100):
        ew = math.exp(w)
        err = w * ew - z
        if abs(err) <= target:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            w = -1.0 + 1e-12
            continue
        w -= err / (ew * wp1 - (w + 2.0) * err / (2.0 * wp1))
    raise RuntimeError(f"lambert_w0 failed to reach residual {target:.1e} for z={z!r}")


@lru_cache(maxsize=1)
def x_upper_tight():
    """Tight upper bound on the optimal ratio: its maximum over ``eta``.

    ``x_star(eta)`` rises from 1 at both ends of ``(0, eta_o)`` to a single
    interior peak, so golden-section search on ``[1e-6, eta_o]``, narrowed
    to ``1e-12`` in ``eta``, recovers the bound.
    """
    def x_star(eta):
        return optimal_x_exact(eta, tol=1e-12).x_star

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-6, eta_threshold()
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    x_left, x_right = x_star(left), x_star(right)
    while hi - lo > 1e-12:
        if x_left >= x_right:
            hi, right, x_right = right, left, x_left
            left = hi - shrink * (hi - lo)
            x_left = x_star(left)
        else:
            lo, left, x_left = left, right, x_right
            right = lo + shrink * (hi - lo)
            x_right = x_star(right)
    return max(x_left, x_right)


def loading_constants():
    """Bundle of the computed reference constants (none hard-coded)."""
    eta_o = eta_threshold()
    return LoadingConstants(
        eta_o=eta_o,
        x_ub_tight=x_upper_tight(),
        x_ub_loose=X_UPPER_LOOSE,
        snr_threshold_db=10.0 * math.log10(1.0 / eta_o),
    )
