"""Antenna-correlation profiles and correlated Rayleigh channel sampling.

A user's channel column is ``h_k = R_k^(1/2) h_w`` with ``h_w`` drawn i.i.d.
circular complex Gaussian, unit variance per entry. Correlation matrices
follow the exponential model for a uniform linear array,

    R_k[m, n] = rho^|m-n| * exp(1j * (m - n) * theta_k),

which is Hermitian with a unit diagonal, so ``trace(R_k) == N`` holds by
construction for every profile kind.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .linalg import hermitian_part, psd_sqrt

__all__ = [
    "PROFILE_KINDS",
    "CorrelationProfile",
    "SystemConfig",
    "ChannelRealization",
    "check_positive_finite",
    "check_count",
    "check_rho",
    "eta_from_snr_db",
    "build_correlation",
    "sample_channel",
    "trial_rng",
]

# theta assignment schemes for the exponential model:
#   exp-even    theta_k = 2*pi*k/K
#   exp-random  theta_k uniform on [0, 2*pi), drawn from the caller's rng
#   exp-common  one fixed theta shared by every user
PROFILE_KINDS = ("identity", "exp-even", "exp-random", "exp-common")


def check_positive_finite(value, name):
    """Return ``value`` if it is positive and finite, else raise ``ValueError`` naming ``name``.

    The one check for an inverse SNR ``eta`` and a solver tolerance ``tol``.
    A scalar is tested with plain comparisons (callers such as ``dfdx`` run
    in tight loops, so a Python float is recognized before the costlier
    ``np.ndim``); an array must hold only positive finite entries.
    """
    if isinstance(value, float) or np.ndim(value) == 0:
        ok = 0.0 < value < math.inf
    else:
        arr = np.asarray(value, dtype=float)
        ok = bool(np.all((arr > 0.0) & (arr < np.inf)))
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_count(value, name):
    """Return ``value`` if it is at least 1, else raise ``ValueError`` naming ``name``."""
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def check_rho(value):
    """Return ``value`` if it lies in ``[0, 1)``, else raise ``ValueError`` naming ``rho``."""
    if not 0.0 <= value < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {value!r}")
    return value


def eta_from_snr_db(snr_db):
    """Inverse SNR ``eta = 10**(-snr_db/10)`` of a scalar or an array of dB values.

    A scalar gives a Python float, an array an array of the same shape.
    Raises ``ValueError`` when ``snr_db`` is not finite or its ``eta``
    overflows or underflows to zero.
    """
    if np.ndim(snr_db) == 0:
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
class CorrelationProfile:
    """Per-user correlation-matrix generator parameters."""

    kind: str
    N: int
    K: int
    rho: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"profile kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        check_rho(self.rho)
        check_count(self.N, "N")
        check_count(self.K, "K")


@dataclass(frozen=True)
class SystemConfig:
    """One experiment's worth of system parameters.

    ``snr_db`` fixes the inverse SNR ``eta = 10**(-snr_db/10)``; the total
    transmit power is normalized to 1 so ``eta`` equals the noise power.
    """

    N: int
    K: int
    snr_db: float
    profile: CorrelationProfile
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        # N and K are checked by the profile, whose dimensions must match.
        check_count(self.trials, "trials")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        eta_from_snr_db(self.snr_db)  # raises on a non-finite or out-of-range SNR
        if (self.profile.N, self.profile.K) != (self.N, self.K):
            raise ValueError(
                f"profile dimensions ({self.profile.N}, {self.profile.K}) do not match "
                f"config dimensions ({self.N}, {self.K})"
            )

    @property
    def eta(self):
        """Inverse SNR (noise power over transmit power)."""
        return eta_from_snr_db(self.snr_db)

    @classmethod
    def make(cls, N, K, snr_db, kind="identity", rho=0.0, theta=0.0, trials=1, seed=0):
        """Build a config and its matching profile in one call."""
        profile = CorrelationProfile(kind=kind, N=N, K=K, rho=rho, theta=theta)
        return cls(N=N, K=K, snr_db=snr_db, profile=profile, trials=trials, seed=seed)


@dataclass
class ChannelRealization:
    """One sampled channel: columns of ``H`` are the per-user vectors."""

    H: np.ndarray
    R: list = field(repr=False)
    Rsqrt: list = field(repr=False)
    trial: int = 0


def build_correlation(profile, k, rng=None):
    """Correlation matrix for user ``k`` under the given profile.

    ``rng`` is consulted only by the ``exp-random`` kind, which draws the
    user's phase uniformly from ``[0, 2*pi)``.
    """
    if not 0 <= k < profile.K:
        raise ValueError(f"user index {k} out of range for K={profile.K}")
    N = profile.N
    if profile.kind == "identity" or profile.rho == 0.0:
        return np.eye(N, dtype=complex)
    if profile.kind == "exp-even":
        theta = 2.0 * np.pi * k / profile.K
    elif profile.kind == "exp-common":
        theta = profile.theta
    else:  # exp-random
        if rng is None:
            raise ValueError("exp-random profile needs an rng to draw theta")
        theta = rng.uniform(0.0, 2.0 * np.pi)
    d = np.subtract.outer(np.arange(N), np.arange(N))
    R = profile.rho ** np.abs(d) * np.exp(1j * d * theta)
    return hermitian_part(R)


def trial_rng(seed, trial):
    """Independent random stream for one trial.

    The stream is a pure function of ``(seed, trial)`` (numpy's SeedSequence
    mixes both through its hash), so trials can run in any order or in
    parallel and still reproduce bit-identically.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(trial))))


@one_blas_thread
def sample_channel(config, trial):
    """Draw the channel realization for one trial of ``config``.

    Deterministic for fixed ``(config.seed, trial)``. For the ``exp-random``
    profile the per-user phases are drawn first (so the correlation matrices
    belong to this realization), then the white channel matrix.
    """
    if not 0 <= trial < config.trials:
        raise ValueError(f"trial {trial} out of range for trials={config.trials}")
    N, K = config.N, config.K
    rng = trial_rng(config.seed, trial)
    profile = config.profile

    if profile.kind == "identity" or profile.rho == 0.0:
        eye = np.eye(N, dtype=complex)
        R = [eye] * K
        Rsqrt = R
    elif profile.kind == "exp-common":
        R0 = build_correlation(profile, 0)
        R = [R0] * K
        Rsqrt = [psd_sqrt(R0)] * K
    else:
        R = [build_correlation(profile, k, rng) for k in range(K)]
        Rsqrt = [psd_sqrt(Rk) for Rk in R]

    # CN(0, 1) entries: independent real/imaginary parts of variance 1/2.
    Hw = (rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))) / np.sqrt(2.0)
    if profile.kind == "identity" or profile.rho == 0.0:
        H = Hw
    else:
        H = np.column_stack([Rsqrt[k] @ Hw[:, k] for k in range(K)])
    return ChannelRealization(H=H, R=R, Rsqrt=Rsqrt, trial=trial)
