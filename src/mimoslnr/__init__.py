"""Asymptotic SLNR analysis and optimal user loading for RZF precoding.

The package splits into thin layers: dense complex kernels (`linalg`),
correlated channel sampling (`channel`), the precoder and instantaneous
metrics (`precoding`), deterministic equivalents of the SLNR
(`asymptotic`), the user-loading optimizer (`loading`), reproducible
experiment runners with CSV output (`experiments`), and the slow reference
routes that check them (`oracles`). A small CLI (`cli`) fronts the solvers
and sweeps.

The package exports the entry points listed in ``__all__``; every other
public name is imported from its own module, as in
``from mimoslnr.linalg import psd_sqrt``.
"""

__version__ = "0.1.0"

from .asymptotic import (
    gamma_common_r,
    gamma_exp_even,
    gamma_uncorrelated,
    solve_exponential_fixed_point,
)
from .channel import SystemConfig, sample_channel, trial_rng
from .experiments import (
    run_cdf_experiment,
    run_correlation_sweep,
    run_loading_sweep,
    write_csv,
)
from .loading import eta_threshold, loading_constants, optimal_x_exact
from .oracles import brute_force_optimal_x, slnr_leave_one_out
from .precoding import compute_metrics

__all__ = [
    "__version__",
    "SystemConfig",
    "sample_channel",
    "trial_rng",
    "compute_metrics",
    "slnr_leave_one_out",
    "gamma_uncorrelated",
    "gamma_common_r",
    "gamma_exp_even",
    "solve_exponential_fixed_point",
    "optimal_x_exact",
    "eta_threshold",
    "loading_constants",
    "brute_force_optimal_x",
    "run_cdf_experiment",
    "run_correlation_sweep",
    "run_loading_sweep",
    "write_csv",
]
