"""One validation point: every entry point that takes ``eta`` or ``tol``
rejects a value that is not positive and finite, or is a ``bool``, with a
``ValueError`` naming it, before any iteration can spin on it. The same
holds for a correlation coefficient outside ``[0, 1)``, a load ratio
``alpha`` that is not positive and finite, a non-finite phase, a ``bool``
SNR (or SNR array), ``rho`` or phase (a 0-d ``bool`` array included), an
array SNR, ``rho`` or common phase (a 0-d array is stored as a float),
a complex, string or ``None`` scalar where a real number is due, a phase
array or sweep grid that is not a nonempty 1-D array of finite real
numbers, a channel ``H`` that is not a matrix, a count (antennas, users,
trials, draws) that is not an integer of at least 1, and a seed or trial
number that is not an integer of at least 0 (or, for a trial, not below the
trial count)."""

import warnings

import numpy as np
import pytest

from mimoslnr import experiments
from mimoslnr.asymptotic import (
    gamma_common_r,
    gamma_exp_common,
    gamma_exp_even,
    gamma_uncorrelated,
    solve_exponential_fixed_point,
)
from mimoslnr.channel import (
    PROFILE_KINDS, SystemConfig, build_correlation, eta_from_snr_db, sample_channel, trial_rng
)
from mimoslnr.experiments import run_correlation_sweep, run_loading_sweep
from mimoslnr.loading import (
    dfdx,
    objective_f,
    optimal_x_exact,
    optimal_x_high_snr,
    optimal_x_low_snr,
)
from mimoslnr.oracles import (
    brute_force_optimal_x, even_mean_correlation, slnr_leave_one_out, solve_fixed_point
)
from mimoslnr.precoding import compute_metrics

H = np.array([[1.0, 0.5j], [0.2, 1.0], [0.0, 0.3]])
R = [np.eye(4, dtype=complex)] * 2
LAM = np.ones(4)
THETA = [0.1, 2.0]

ETA_ENTRY_POINTS = {
    "slnr_leave_one_out": lambda eta: slnr_leave_one_out(H, eta),
    "compute_metrics": lambda eta: compute_metrics(H, eta),
    "solve_fixed_point": lambda eta: solve_fixed_point(R, eta),
    "solve_exponential_fixed_point": lambda eta: solve_exponential_fixed_point(4, 0.5, THETA, eta),
    "gamma_exp_even": lambda eta: gamma_exp_even(4, 2, 0.5, eta),
    "gamma_exp_common": lambda eta: gamma_exp_common(4, 2, 0.5, eta),
    "gamma_uncorrelated": lambda eta: gamma_uncorrelated(2.0, eta),
    "gamma_uncorrelated-array": lambda eta: gamma_uncorrelated(2.0, np.array([0.1, eta])),
    "gamma_common_r": lambda eta: gamma_common_r(LAM, 2, eta),
    "objective_f": lambda eta: objective_f(1.5, eta),
    "dfdx": lambda eta: dfdx(1.2, eta),
    "dfdx-array": lambda eta: dfdx(1.2, np.array([0.1, eta])),
    "optimal_x_exact": lambda eta: optimal_x_exact(eta),
    "optimal_x_low_snr": lambda eta: optimal_x_low_snr(eta),
    "optimal_x_high_snr": lambda eta: optimal_x_high_snr(eta),
    "brute_force_optimal_x": brute_force_optimal_x,
}

TOL_ENTRY_POINTS = {
    "solve_fixed_point": lambda tol: solve_fixed_point(R, 0.1, tol=tol),
    "solve_exponential_fixed_point": lambda tol: solve_exponential_fixed_point(
        4, 0.5, THETA, 0.1, tol=tol
    ),
    "gamma_exp_even": lambda tol: gamma_exp_even(4, 2, 0.5, 0.1, tol=tol),
    "gamma_exp_common": lambda tol: gamma_exp_common(4, 2, 0.5, 0.1, tol=tol),
    "gamma_common_r": lambda tol: gamma_common_r(LAM, 2, 0.1, tol=tol),
    "optimal_x_exact": lambda tol: optimal_x_exact(0.01, tol=tol),
    "run_correlation_sweep": lambda tol: run_correlation_sweep(
        N=4, alpha=0.5, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=1, tol=tol
    ),
}

SNR_ENTRY_POINTS = {
    "eta_from_snr_db": eta_from_snr_db,
    "SystemConfig": lambda snr_db: SystemConfig.make(N=4, K=2, snr_db=snr_db),
    "run_correlation_sweep": lambda snr_db: run_correlation_sweep(
        N=4, alpha=0.5, snr_db=snr_db, rho_grid=[0.3], trials_for_random_theta=1
    ),
}

RHO_ENTRY_POINTS = {
    "SystemConfig": lambda rho: SystemConfig.make(N=4, K=2, snr_db=10.0, kind="exp-even", rho=rho),
    "build_correlation": lambda rho: build_correlation(4, rho, 0.0),
    "even_mean_correlation": lambda rho: even_mean_correlation(4, 2, rho),
    "gamma_exp_even": lambda rho: gamma_exp_even(4, 2, rho, 0.1),
    "gamma_exp_common": lambda rho: gamma_exp_common(4, 2, rho, 0.1),
    "solve_exponential_fixed_point": lambda rho: solve_exponential_fixed_point(4, rho, THETA, 0.1),
}

COUNT_ENTRY_POINTS = {
    "N": lambda n: SystemConfig.make(N=n, K=4, snr_db=10.0),
    "K": lambda k: SystemConfig.make(N=8, K=k, snr_db=10.0),
    "trials": lambda trials: SystemConfig.make(N=8, K=4, snr_db=10.0, trials=trials),
    "build_correlation-N": lambda n: build_correlation(n, 0.5, 0.0),
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
# float32 scalar and a 0-d array take its np.ndim branch. A complex eta
# raised a TypeError that did not name it, and a string one numpy's
# UFuncTypeError (compute_metrics named its internal beta instead).
@pytest.mark.parametrize("eta", [
    np.nan, np.inf, -np.inf, 0.0, -1.0,
    pytest.param(np.float64(np.nan), id="float64-nan"),
    pytest.param(np.float32(0), id="float32-0"),
    pytest.param(np.array(-1.0), id="0d-array--1.0"),
    0.1 + 0j, "0.1",
])
@pytest.mark.parametrize("entry", ETA_ENTRY_POINTS)
def test_eta_must_be_positive_and_finite(entry, eta):
    with pytest.raises(ValueError, match=r"\beta\b"):  # the word eta, not beta
        ETA_ENTRY_POINTS[entry](eta)


# A bool passed for 1: compute_metrics(H, True) ran at eta = 1. The -array
# entries build a float array around eta, so they get a bool array instead.
@pytest.mark.parametrize("eta", [True, pytest.param(np.bool_(True), id="np.bool_-True")])
@pytest.mark.parametrize("entry", [e for e in ETA_ENTRY_POINTS if not e.endswith("-array")])
def test_eta_must_not_be_bool(entry, eta):
    with pytest.raises(ValueError, match="eta"):
        ETA_ENTRY_POINTS[entry](eta)


@pytest.mark.parametrize("entry", [
    lambda eta: gamma_uncorrelated(2.0, eta), lambda eta: dfdx(1.2, eta), brute_force_optimal_x,
], ids=["gamma_uncorrelated-array", "dfdx-array", "brute_force_optimal_x"])
def test_eta_array_must_not_be_bool(entry):
    with pytest.raises(ValueError, match="eta"):
        entry(np.array([True, True]))


# optimal_x_exact, brute_force_optimal_x and the two loading approximations
# take one eta: a one-element array failed in float() with a TypeError that
# did not name it, and a two-element one in optimal_x_high_snr's range test
# with numpy's ambiguous-truth-value error. A 0-d array is a number and gives
# the float's result.
SCALAR_ETA_ENTRY_POINTS = [
    "optimal_x_exact", "brute_force_optimal_x", "optimal_x_low_snr", "optimal_x_high_snr",
]


@pytest.mark.parametrize(
    "eta", [np.array([0.1]), np.array([0.1, 0.2])], ids=["1-element", "2-element"]
)
@pytest.mark.parametrize("entry", SCALAR_ETA_ENTRY_POINTS)
def test_scalar_eta_must_be_one_number(entry, eta):
    with pytest.raises(ValueError, match="eta"):
        ETA_ENTRY_POINTS[entry](eta)


@pytest.mark.parametrize("entry", SCALAR_ETA_ENTRY_POINTS)
def test_scalar_eta_takes_a_0d_array(entry):
    assert ETA_ENTRY_POINTS[entry](np.array(0.1)) == ETA_ENTRY_POINTS[entry](0.1)


@pytest.mark.parametrize("tol", [
    np.nan, 0.0, -1.0, True, pytest.param(np.bool_(True), id="np.bool_-True"), 0.1 + 0j, "0.1",
])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_tol_must_be_positive_and_finite(entry, tol):
    with pytest.raises(ValueError, match="tol"):
        TOL_ENTRY_POINTS[entry](tol)


# A bool SNR, rho or theta passed for 0 or 1 and reached the CSV header as
# "True" or "False". A string SNR passed too (SystemConfig(4, 2, "20").snr_db
# was "20", which a CSV echoed as 20, not 20.0); a complex one raised a TypeError.
@pytest.mark.parametrize("snr_db", [
    np.nan, np.inf, -4000.0, True, False, pytest.param(np.bool_(True), id="np.bool_-True"),
    pytest.param(np.array([True, False]), id="bool-array"), 0.1 + 0j, "0.1",
])
@pytest.mark.parametrize("entry", SNR_ENTRY_POINTS)
def test_snr_must_be_a_finite_number(entry, snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        SNR_ENTRY_POINTS[entry](snr_db)


# dfdx(-1.0, 0.1) returned 0.169 for a loading ratio outside the domain,
# and at x = 0 dfdx and objective_f returned NaN with RuntimeWarnings.
@pytest.mark.parametrize("x", [
    -1.0, 0.0, -0.0, np.nan, np.inf,
    pytest.param(np.array(0.0), id="0d-array-0.0"),
    pytest.param(np.array([1.2, 0.0]), id="array-0.0"),
    pytest.param(np.array([1.2, -1.0]), id="array--1.0"),
    pytest.param(np.array([np.nan, 1.2]), id="array-nan"),
    pytest.param(np.array([1.2, np.inf]), id="array-inf"),
    1.2 + 0j, "1.2",
])
@pytest.mark.parametrize("entry", [objective_f, dfdx], ids=["objective_f", "dfdx"])
def test_loading_ratio_must_be_positive_and_finite(entry, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must be"):
            entry(x, 0.1)


# A bool grid ran as 0 and 1 dB and wrote snr_db_min = 0.0, snr_db_max = 1.0.
def test_loading_sweep_grid_must_not_be_bool():
    with pytest.raises(ValueError, match="snr_db"):
        run_loading_sweep(np.array([True, False]))


# A scalar or 2-D grid raised a TypeError, and an empty one a ValueError from
# numpy's min that did not name the grid.
@pytest.mark.parametrize("grid", [10.0, [], [[1.0, 2.0]]], ids=["scalar", "empty", "2-D"])
def test_loading_sweep_grid_must_be_a_vector(grid):
    with pytest.raises(ValueError, match="snr_db_grid"):
        run_loading_sweep(grid)


# An array SNR made a config that compute_metrics then failed on with a TypeError.
def test_config_snr_must_be_a_scalar():
    with pytest.raises(ValueError, match="snr_db"):
        SystemConfig.make(4, 2, np.array([1.0, 2.0]))


# A 1-D channel raised IndexError (tuple index out of range) from both. The
# metrics also take a (B, N, K) stack of channels, the oracle one channel only.
@pytest.mark.parametrize("entry,channel", [
    (compute_metrics, np.ones(4)), (compute_metrics, np.ones((2, 4, 2, 2))),
    (slnr_leave_one_out, np.ones(4)), (slnr_leave_one_out, np.ones((4, 2, 2))),
], ids=["compute_metrics-1-D", "compute_metrics-4-D", "slnr_leave_one_out-1-D",
        "slnr_leave_one_out-3-D"])
def test_channel_must_be_a_matrix(entry, channel):
    with pytest.raises(ValueError, match="H"):
        entry(channel, 0.1)


# An array rho made a config whose rho was an array, or failed on numpy's
# ambiguous truth value without naming rho; a complex or string rho failed
# the range check with a TypeError that did not name it.
@pytest.mark.parametrize("rho", [
    np.nan, np.inf, 1.0, -0.1, False, pytest.param(np.bool_(False), id="np.bool_-False"),
    pytest.param(np.array([0.1]), id="array-1"), pytest.param(np.array([0.1, 0.2]), id="array-2"),
    pytest.param(np.array(False), id="0d-bool-array"), 0.5j, "0.5", None,
])
@pytest.mark.parametrize("entry", RHO_ENTRY_POINTS)
def test_rho_must_lie_in_unit_interval(entry, rho):
    with pytest.raises(ValueError, match="rho"):
        RHO_ENTRY_POINTS[entry](rho)


# A bool array ran as phases of 0 and 1 rad, a complex one dropped its
# imaginary parts with a warning, and a string one raised a ValueError from
# numpy that did not name theta.
@pytest.mark.parametrize("theta", [
    [0.1, np.nan], [0.1, np.inf], [-np.inf, 0.1], [], [[0.1, 2.0]],
    pytest.param(np.array([True, False]), id="bool-array"),
    pytest.param(np.array([0.1, 2.0j]), id="complex-array"), ["0.1", "2.0"],
])
def test_theta_must_be_finite_phases(theta):
    with pytest.raises(ValueError, match="theta"):
        solve_exponential_fixed_point(4, 0.5, theta, 0.1)


# An array, None, complex or string theta raised a TypeError that did not name it.
@pytest.mark.parametrize("theta", [
    np.nan, np.inf, -np.inf, True, pytest.param(np.bool_(False), id="np.bool_-False"),
    pytest.param(np.array([0.1]), id="array-1"), pytest.param(np.array(True), id="0d-bool-array"),
    None, 0.5j, "0.5",
])
@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profile_theta_must_be_finite(kind, theta):
    with pytest.raises(ValueError, match="theta"):
        SystemConfig.make(N=4, K=2, snr_db=10.0, kind=kind, rho=0.5, theta=theta)
    with pytest.raises(ValueError, match="theta"):
        build_correlation(4, 0.5, theta)


# A 0-d array rho or theta was kept in the frozen config as an array.
@pytest.mark.parametrize("field", ["rho", "theta"])
def test_config_stores_rho_and_theta_as_floats(field):
    config = SystemConfig.make(8, 4, 10.0, kind="exp-even", **{field: np.array(0.3)})
    assert type(getattr(config, field)) is float and getattr(config, field) == 0.3


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


# inf overflowed in round(alpha * N), nan failed without naming alpha, True
# (a 0-d bool array too) was taken for 1, an array failed in numpy's
# truth-value check without naming alpha, and a complex or string one failed
# the range check with a TypeError that did not name it. A finite 1e308 made
# alpha * N overflow to inf in round(alpha * N) in the same way, and 1e20
# and 1e300 raised numpy's "Maximum allowed dimension exceeded" from the phase
# draw. Each of these is rejected before anything is allocated.
@pytest.mark.parametrize("alpha", [
    np.inf, np.nan, -0.5, 0.0, True, pytest.param(np.bool_(True), id="np.bool_-True"),
    pytest.param(np.array(True), id="0d-bool-array"),
    pytest.param(np.array([0.5, 0.6]), id="array"), 0.5 + 0j, "0.5", None, 1e308, 1e20, 1e300,
])
def test_sweep_alpha_must_be_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="alpha"):
        run_correlation_sweep(
            N=4, alpha=alpha, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=1
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_common_r_eigenvalues_must_be_finite(bad):
    # NaN fails every comparison, so the sign and trace checks alone let it through.
    with pytest.raises(ValueError, match="eigenvalues"):
        gamma_common_r([bad, 2.0], K=2, eta=0.1)
