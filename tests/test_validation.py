"""One validation point: every entry point that takes ``eta`` or ``tol``
rejects a value that is not positive and finite with a ``ValueError`` naming
it, before any iteration can spin on it. The same holds for a correlation
coefficient outside ``[0, 1)``, a non-finite phase, a count (antennas, users,
trials, draws) that is not an integer of at least 1, and a seed or trial
number that is not an integer of at least 0 (or, for a trial, not below the
trial count)."""

import numpy as np
import pytest

from mimoslnr import experiments
from mimoslnr.asymptotic import (
    even_mean_correlation,
    gamma_common_r,
    gamma_exp_even,
    gamma_uncorrelated,
    solve_exponential_fixed_point,
    solve_fixed_point,
)
from mimoslnr.channel import (
    PROFILE_KINDS, CorrelationProfile, SystemConfig, sample_channel, trial_rng
)
from mimoslnr.experiments import run_correlation_sweep
from mimoslnr.loading import (
    dfdx,
    objective_f,
    optimal_x_exact,
    optimal_x_high_snr,
    optimal_x_low_snr,
)
from mimoslnr.precoding import (
    compute_metrics,
    slnr_instantaneous,
    slnr_leave_one_out,
)

H = np.array([[1.0, 0.5j], [0.2, 1.0], [0.0, 0.3]])
R = [np.eye(4, dtype=complex)] * 2
LAM = np.ones(4)
THETA = [0.1, 2.0]

ETA_ENTRY_POINTS = {
    "slnr_instantaneous": lambda eta: slnr_instantaneous(H, eta),
    "slnr_leave_one_out": lambda eta: slnr_leave_one_out(H, eta),
    "compute_metrics": lambda eta: compute_metrics(H, eta),
    "solve_fixed_point": lambda eta: solve_fixed_point(R, eta),
    "solve_exponential_fixed_point": lambda eta: solve_exponential_fixed_point(4, 0.5, THETA, eta),
    "gamma_exp_even": lambda eta: gamma_exp_even(4, 2, 0.5, eta),
    "gamma_uncorrelated": lambda eta: gamma_uncorrelated(2.0, eta),
    "gamma_uncorrelated-array": lambda eta: gamma_uncorrelated(2.0, np.array([0.1, eta])),
    "gamma_common_r": lambda eta: gamma_common_r(LAM, 2, eta),
    "objective_f": lambda eta: objective_f(1.5, eta),
    "dfdx": lambda eta: dfdx(1.2, eta),
    "dfdx-array": lambda eta: dfdx(1.2, np.array([0.1, eta])),
    "optimal_x_exact": lambda eta: optimal_x_exact(eta),
    "optimal_x_low_snr": lambda eta: optimal_x_low_snr(eta),
    "optimal_x_high_snr": lambda eta: optimal_x_high_snr(eta),
}

TOL_ENTRY_POINTS = {
    "solve_fixed_point": lambda tol: solve_fixed_point(R, 0.1, tol=tol),
    "solve_exponential_fixed_point": lambda tol: solve_exponential_fixed_point(
        4, 0.5, THETA, 0.1, tol=tol
    ),
    "gamma_exp_even": lambda tol: gamma_exp_even(4, 2, 0.5, 0.1, tol=tol),
    "gamma_common_r": lambda tol: gamma_common_r(LAM, 2, 0.1, tol=tol),
    "optimal_x_exact": lambda tol: optimal_x_exact(0.01, tol=tol),
    "run_correlation_sweep": lambda tol: run_correlation_sweep(
        N=4, alpha=0.5, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=1, tol=tol
    ),
}

RHO_ENTRY_POINTS = {
    "even_mean_correlation": lambda rho: even_mean_correlation(4, 2, rho),
    "gamma_exp_even": lambda rho: gamma_exp_even(4, 2, rho, 0.1),
    "solve_exponential_fixed_point": lambda rho: solve_exponential_fixed_point(4, rho, THETA, 0.1),
}

COUNT_ENTRY_POINTS = {
    "N": lambda n: SystemConfig.make(N=n, K=4, snr_db=10.0),
    "K": lambda k: SystemConfig.make(N=8, K=k, snr_db=10.0),
    "trials": lambda trials: SystemConfig.make(N=8, K=4, snr_db=10.0, trials=trials),
    "run_correlation_sweep-N": lambda n: run_correlation_sweep(
        N=n, alpha=0.5, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=1
    ),
    "trials_for_random_theta": lambda draws: run_correlation_sweep(
        N=4, alpha=0.5, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=draws
    ),
}

CONFIG = SystemConfig.make(N=4, K=2, snr_db=10.0, trials=2)

INDEX_ENTRY_POINTS = {
    "SystemConfig-seed": lambda seed: SystemConfig.make(N=4, K=2, snr_db=10.0, seed=seed),
    "sample_channel-trial": lambda trial: sample_channel(CONFIG, trial),
    "run_correlation_sweep-seed": lambda seed: run_correlation_sweep(
        N=4, alpha=0.5, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=1, seed=seed
    ),
    "trial_rng-seed": lambda seed: trial_rng(seed, 0),
    "trial_rng-trial": lambda trial: trial_rng(0, trial),
}


# A Python float takes check_positive_finite's isinstance branch; a numpy
# float32 scalar and a 0-d array take its np.ndim branch.
@pytest.mark.parametrize("eta", [
    np.nan, np.inf, -np.inf, 0.0, -1.0,
    pytest.param(np.float64(np.nan), id="float64-nan"),
    pytest.param(np.float32(0), id="float32-0"),
    pytest.param(np.array(-1.0), id="0d-array--1.0"),
])
@pytest.mark.parametrize("entry", ETA_ENTRY_POINTS)
def test_eta_must_be_positive_and_finite(entry, eta):
    with pytest.raises(ValueError, match="eta"):
        ETA_ENTRY_POINTS[entry](eta)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_tol_must_be_positive_and_finite(entry, tol):
    with pytest.raises(ValueError, match="tol"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("rho", [np.nan, np.inf, 1.0, -0.1])
@pytest.mark.parametrize("entry", RHO_ENTRY_POINTS)
def test_rho_must_lie_in_unit_interval(entry, rho):
    with pytest.raises(ValueError, match="rho"):
        RHO_ENTRY_POINTS[entry](rho)


@pytest.mark.parametrize("theta", [[0.1, np.nan], [0.1, np.inf], [-np.inf, 0.1], [], [[0.1, 2.0]]])
def test_theta_must_be_finite_phases(theta):
    with pytest.raises(ValueError, match="theta"):
        solve_exponential_fixed_point(4, 0.5, theta, 0.1)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profile_theta_must_be_finite(kind, theta):
    with pytest.raises(ValueError, match="theta"):
        CorrelationProfile(kind=kind, N=4, K=2, rho=0.5, theta=theta)
    with pytest.raises(ValueError, match="theta"):
        SystemConfig.make(N=4, K=2, snr_db=10.0, kind=kind, rho=0.5, theta=theta)


@pytest.mark.parametrize("count", [
    8.5, 2.5, 4.0, True, "4",
    pytest.param(np.float64(4.0), id="float64-4"),
    pytest.param(np.array(4), id="0d-array-4"),
])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_must_be_an_integer(entry, count):
    with pytest.raises(ValueError, match=entry.rsplit("-", 1)[-1]):
        COUNT_ENTRY_POINTS[entry](count)


def test_numpy_integer_counts_are_accepted():
    cfg = SystemConfig.make(
        N=np.int64(8), K=np.int32(4), snr_db=10.0, trials=np.uint8(2), seed=np.int64(3)
    )
    ref = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=2, seed=3)
    assert np.array_equal(sample_channel(cfg, np.uint8(1)).H, sample_channel(ref, 1).H)


# A float or bool seed or trial must not be truncated to some other stream.
@pytest.mark.parametrize("index", [1.5, True, np.nan, -1])
@pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
def test_seed_and_trial_must_be_nonnegative_integers(entry, index):
    with pytest.raises(ValueError, match=entry.rsplit("-", 1)[-1]):
        INDEX_ENTRY_POINTS[entry](index)


def test_bad_seed_fails_before_the_first_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr(experiments, "gamma_exp_even", solve)
    with pytest.raises(ValueError, match="seed"):
        INDEX_ENTRY_POINTS["run_correlation_sweep-seed"](0.5)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_common_r_eigenvalues_must_be_finite(bad):
    # NaN fails every comparison, so the sign and trace checks alone let it through.
    with pytest.raises(ValueError, match="eigenvalues"):
        gamma_common_r([bad, 2.0], K=2, eta=0.1)
