"""Antenna-correlation profiles and correlated Rayleigh channel sampling.

A user's channel column is ``h_k = R_k^(1/2) h_w`` with ``h_w`` drawn i.i.d.
circular complex Gaussian, unit variance per entry. Correlation matrices
follow the exponential model for a uniform linear array,

    R_k[m, n] = rho^|m-n| * exp(1j * (m - n) * theta_k),

which is Hermitian with a unit diagonal, so ``trace(R_k) == N`` holds by
construction for every profile kind.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .linalg import psd_sqrt

__all__ = [
    "PROFILE_KINDS",
    "SystemConfig",
    "ChannelRealization",
    "check_positive_finite",
    "check_positive_number",
    "check_count",
    "check_index",
    "check_rho",
    "check_vector",
    "eta_from_snr_db",
    "user_phases",
    "build_correlation",
    "sample_channel",
    "trial_rng",
]

# The kinds' phase schemes are those of user_phases.
PROFILE_KINDS = ("identity", "exp-even", "exp-random", "exp-common")


def check_positive_finite(value, name):
    """Return ``value`` if it is positive and finite, else raise ``ValueError`` naming ``name``.

    The one check for an inverse SNR ``eta`` and a solver tolerance ``tol``.
    A Python float (``np.float64`` included) is tested with plain
    comparisons, because callers such as ``dfdx`` run in tight loops; any
    other scalar or array must hold only positive finite entries. A ``bool``
    of any kind would pass for 1, so it is rejected.
    """
    if isinstance(value, float):
        ok = 0.0 < value < math.inf
    else:
        arr = np.asarray(value)
        ok = arr.dtype != bool and bool(np.all((arr > 0.0) & (arr < np.inf)))
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_positive_number(value, name):
    """:func:`check_positive_finite` for an input that must be one number.

    An array of any shape but 0-d raises ``ValueError`` naming ``name``; a
    one-element array would otherwise pass the check and fail later in
    ``float()`` with a ``TypeError``. A Python float skips the shape test.
    """
    if not isinstance(value, float) and np.ndim(value) != 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return check_positive_finite(value, name)


def _check_integer(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_count(value, name):
    """Return ``value`` if it is an integer (not a ``bool``) >= 1, else raise ``ValueError``."""
    if not _check_integer(value, name) >= 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def check_index(value, name):
    """Return ``value`` if it is an integer (not a ``bool``) >= 0, else raise ``ValueError``.

    The check for a seed and a trial number: each picks a random stream, so
    a float or ``bool`` is rejected rather than truncated to another one.
    """
    if not _check_integer(value, name) >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _is_number(value):
    # A real number only: a bool of any kind, 0-d arrays included, would pass
    # for 0 or 1, and a complex, string or None fails the range checks with a
    # TypeError that does not name the input.
    return np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iuf"


def check_rho(value):
    """``value`` as a float if it is a number in ``[0, 1)``, else raise ``ValueError`` naming it."""
    if not _is_number(value) or not 0.0 <= value < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {value!r}")
    return float(value)


def _check_theta(value):
    if not _is_number(value) or not math.isfinite(value):
        raise ValueError(f"theta must be finite, got {value!r}")
    return float(value)


def check_vector(value, name):
    """``value`` as a float array if it is a nonempty 1-D array of finite numbers.

    The one check for an array input (phases, eigenvalues, sweep grids, a
    solver's start); anything else, a ``bool``, complex or string array
    included, raises ``ValueError`` naming ``name``.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.ndim != 1 or arr.size < 1:
        raise ValueError(
            f"{name} must be a nonempty 1-D array of numbers, got {arr.dtype} shape {arr.shape}"
        )
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def eta_from_snr_db(snr_db):
    """Inverse SNR ``eta = 10**(-snr_db/10)`` of a scalar or an array of dB values.

    A scalar gives a Python float, an array an array of the same shape.
    Raises ``ValueError`` when ``snr_db`` is a ``bool`` (or holds them) or
    is not finite, or its ``eta`` overflows or underflows to zero.
    """
    if np.asarray(snr_db).dtype == bool:
        eta = math.nan  # a bool would pass for 0 or 1 dB and print as True
    elif np.ndim(snr_db) == 0:
        try:
            eta = 10.0 ** (-float(snr_db) / 10.0)
        except OverflowError:
            eta = math.inf
    else:
        with np.errstate(over="ignore"):
            eta = 10.0 ** (-np.asarray(snr_db, dtype=float) / 10.0)
    try:
        return check_positive_finite(eta, "eta")
    except ValueError:
        raise ValueError(
            f"snr_db must give a positive finite eta = 10**(-snr_db/10), got {snr_db!r}"
        ) from None


@dataclass(frozen=True)
class SystemConfig:
    """One experiment's worth of system parameters.

    ``snr_db`` fixes the inverse SNR ``eta = 10**(-snr_db/10)``; the total
    transmit power is normalized to 1 so ``eta`` equals the noise power.
    ``kind``, ``rho`` and ``theta`` fix each user's ``R_k`` (see :func:`user_phases`).
    """

    N: int
    K: int
    snr_db: float
    kind: str = "identity"
    rho: float = 0.0
    theta: float = 0.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"profile kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        # Stored as floats, so a 0-d array or numpy scalar is not kept.
        object.__setattr__(self, "rho", check_rho(self.rho))
        object.__setattr__(self, "theta", _check_theta(self.theta))
        check_count(self.N, "N")
        check_count(self.K, "K")
        check_count(self.trials, "trials")
        check_index(self.seed, "seed")
        if np.ndim(self.snr_db) != 0:
            raise ValueError(f"snr_db must be a scalar, got {self.snr_db!r}")
        eta_from_snr_db(self.snr_db)  # raises on a non-finite or out-of-range SNR

    @property
    def eta(self):
        """Inverse SNR (noise power over transmit power)."""
        return eta_from_snr_db(self.snr_db)

    @classmethod
    def make(cls, N, K, snr_db, kind="identity", rho=0.0, theta=0.0, trials=1, seed=0):
        """The constructor under its keyword signature."""
        return cls(N, K, snr_db, kind, rho, theta, trials, seed)


@dataclass
class ChannelRealization:
    """One sampled channel: columns of ``H`` are the per-user vectors."""

    H: np.ndarray


def user_phases(config, rng=None):
    """The K phases ``theta_k`` of the config's exponential correlations.

    ``2*pi*k/K`` for ``exp-even``; ``config.theta`` for ``exp-common`` and
    ``identity`` (whose phases play no part); for ``exp-random``, K uniform
    draws on ``[0, 2*pi)`` from ``rng``.
    """
    K = config.K
    if config.kind == "exp-even":
        return 2.0 * np.pi * np.arange(K) / K
    if config.kind == "exp-random":
        if rng is None:
            raise ValueError("exp-random profile needs an rng to draw theta")
        return rng.uniform(0.0, 2.0 * np.pi, K)
    return np.full(K, config.theta, dtype=float)


def build_correlation(N, rho, theta):
    """The N x N exponential correlation ``rho^|m-n| * exp(1j * (m - n) * theta)``.

    The identity when ``rho == 0``. The K matrices of an ``exp-*`` config
    are ``build_correlation(N, rho, t)`` over ``t`` in :func:`user_phases`.
    """
    check_count(N, "N")
    rho = check_rho(rho)
    theta = _check_theta(theta)
    if rho == 0.0:
        return np.eye(N, dtype=complex)
    d = np.subtract.outer(np.arange(N), np.arange(N))
    # Exactly Hermitian with a real unit diagonal, as exp(-1j x) is
    # conj(exp(1j x)); herm_eig validates it where it is factorized.
    return rho ** np.abs(d) * np.exp(1j * d * theta)


def trial_rng(seed, trial):
    """Independent random stream for one trial.

    The stream is a pure function of ``(seed, trial)`` (numpy's SeedSequence
    mixes both through its hash), so trials can run in any order or in
    parallel and still reproduce bit-identically. Both must be integers
    >= 0 (see :func:`check_index`).
    """
    check_index(seed, "seed")
    check_index(trial, "trial")
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(trial))))


@one_blas_thread
def sample_channel(config, trial):
    """Draw the channel realization for one trial of ``config``.

    Deterministic for fixed ``(config.seed, trial)``. The trial's stream
    gives, in order, the K phases of :func:`user_phases` (``exp-random``
    with ``rho > 0`` only), then the white channel ``Hw``; column ``k`` of
    ``H`` is ``psd_sqrt(R_k) @ Hw[:, k]``, or ``Hw[:, k]`` when ``R_k = I``.
    Columns are filled one at a time, so one square root is alive at a
    time; a run of users with the same phase (all of ``exp-common``)
    shares one.
    """
    rng = trial_rng(config.seed, trial)  # checks that trial is an integer >= 0
    if trial >= config.trials:
        raise ValueError(f"trial {trial} out of range for trials={config.trials}")
    correlated = config.kind != "identity" and config.rho > 0.0
    theta = user_phases(config, rng) if correlated else None

    # CN(0, 1) entries: independent real/imaginary parts of variance 1/2,
    # all real parts drawn before all imaginary ones.
    z = rng.standard_normal((2, config.N, config.K))
    Hw = np.empty((config.N, config.K), dtype=complex)
    Hw.real, Hw.imag = z
    Hw /= np.sqrt(2.0)
    if not correlated:
        return ChannelRealization(H=Hw)
    H = np.empty_like(Hw)
    for k in range(config.K):
        if k == 0 or theta[k] != theta[k - 1]:
            # Naming R keeps it alive until the next one is built. Freed at
            # once, glibc trims the heap top and eigh's workspace faults in
            # again for every user: ~250 page faults per user at N = 128, not 5.
            R = build_correlation(config.N, config.rho, theta[k])
            root = psd_sqrt(R)
        H[:, k] = root @ Hw[:, k]
    return ChannelRealization(H=H)
