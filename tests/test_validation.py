"""One validation point: every entry point that takes ``eta``, ``tol`` or
``ptx`` rejects a value that is not positive and finite with a ``ValueError``
naming it, before any iteration can spin on it."""

import numpy as np
import pytest

from mimoslnr.asymptotic import (
    check_common_r_bound,
    gamma_common_r,
    gamma_uncorrelated,
    solve_fixed_point,
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
    power_control,
    rzf_precode,
    slnr_instantaneous,
    slnr_leave_one_out,
)

H = np.array([[1.0, 0.5j], [0.2, 1.0], [0.0, 0.3]])
R = [np.eye(4, dtype=complex)] * 2
LAM = np.ones(4)

ETA_ENTRY_POINTS = {
    "slnr_instantaneous": lambda eta: slnr_instantaneous(H, eta),
    "slnr_leave_one_out": lambda eta: slnr_leave_one_out(H, eta),
    "compute_metrics": lambda eta: compute_metrics(H, eta),
    "solve_fixed_point": lambda eta: solve_fixed_point(R, eta),
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
    "gamma_common_r": lambda tol: gamma_common_r(LAM, 2, 0.1, tol=tol),
    "check_common_r_bound": lambda tol: check_common_r_bound(LAM, 2, 0.1, tol=tol),
    "optimal_x_exact": lambda tol: optimal_x_exact(0.01, tol=tol),
    "run_correlation_sweep": lambda tol: run_correlation_sweep(
        N=4, alpha=0.5, snr_db=10.0, rho_grid=[0.3], trials_for_random_theta=1, tol=tol
    ),
}

PTX_ENTRY_POINTS = {
    "power_control": lambda ptx: power_control(H, rzf_precode(H, 0.2), ptx=ptx),
    "compute_metrics": lambda ptx: compute_metrics(H, 0.1, ptx=ptx),
}


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", ETA_ENTRY_POINTS)
def test_eta_must_be_positive_and_finite(entry, eta):
    with pytest.raises(ValueError, match="eta"):
        ETA_ENTRY_POINTS[entry](eta)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_tol_must_be_positive_and_finite(entry, tol):
    with pytest.raises(ValueError, match="tol"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("ptx", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", PTX_ENTRY_POINTS)
def test_ptx_must_be_positive_and_finite(entry, ptx):
    with pytest.raises(ValueError, match="ptx"):
        PTX_ENTRY_POINTS[entry](ptx)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_common_r_eigenvalues_must_be_finite(bad):
    # NaN fails every comparison, so the sign and trace checks alone let it through.
    with pytest.raises(ValueError, match="eigenvalues"):
        gamma_common_r([bad, 2.0], K=2, eta=0.1)
