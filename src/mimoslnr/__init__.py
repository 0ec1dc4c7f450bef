"""Asymptotic SLNR analysis and optimal user loading for RZF precoding.

The package splits into thin layers: dense complex kernels (`linalg`),
correlated channel sampling (`channel`), the precoder and instantaneous
metrics (`precoding`), deterministic equivalents of the SLNR
(`asymptotic`), the user-loading optimizer (`loading`), and reproducible
experiment runners with CSV output (`experiments`). A small CLI (`cli`)
fronts the solvers and sweeps.
"""

__version__ = "0.1.0"

from .asymptotic import (
    AsymptoticSolution,
    BoundCheck,
    FixedPointError,
    check_common_r_bound,
    gamma_common_r,
    gamma_exp_even,
    gamma_uncorrelated,
    solve_exponential_fixed_point,
    solve_fixed_point,
)
from .channel import (
    ChannelRealization,
    CorrelationProfile,
    SystemConfig,
    build_correlation,
    eta_from_snr_db,
    sample_channel,
    trial_rng,
)
from .experiments import (
    ExperimentResult,
    brute_force_optimal_x,
    empirical_cdf,
    run_cdf_experiment,
    run_correlation_sweep,
    run_loading_sweep,
    write_csv,
)
from .linalg import (
    EigDecomposition,
    herm_eig,
    hermitian_part,
    psd_sqrt,
    shifted_gram_solve,
)
from .loading import (
    LoadingConstants,
    LoadingSolution,
    dfdx,
    eta_threshold,
    lambert_w0,
    loading_constants,
    objective_f,
    optimal_x_exact,
    optimal_x_high_snr,
    optimal_x_low_snr,
    x_upper_tight,
)
from .precoding import (
    MetricsPerUser,
    compute_metrics,
    power_control,
    rzf_precode,
    sinr_instantaneous,
    slnr_instantaneous,
    slnr_leave_one_out,
    slnr_ratio,
)

__all__ = [
    "__version__",
    "AsymptoticSolution",
    "BoundCheck",
    "ChannelRealization",
    "CorrelationProfile",
    "EigDecomposition",
    "ExperimentResult",
    "FixedPointError",
    "LoadingConstants",
    "LoadingSolution",
    "MetricsPerUser",
    "SystemConfig",
    "build_correlation",
    "brute_force_optimal_x",
    "check_common_r_bound",
    "compute_metrics",
    "dfdx",
    "empirical_cdf",
    "eta_from_snr_db",
    "eta_threshold",
    "gamma_common_r",
    "gamma_exp_even",
    "gamma_uncorrelated",
    "herm_eig",
    "hermitian_part",
    "lambert_w0",
    "loading_constants",
    "objective_f",
    "optimal_x_exact",
    "optimal_x_high_snr",
    "optimal_x_low_snr",
    "power_control",
    "psd_sqrt",
    "run_cdf_experiment",
    "run_correlation_sweep",
    "run_loading_sweep",
    "rzf_precode",
    "sample_channel",
    "shifted_gram_solve",
    "sinr_instantaneous",
    "slnr_instantaneous",
    "slnr_leave_one_out",
    "slnr_ratio",
    "solve_exponential_fixed_point",
    "solve_fixed_point",
    "trial_rng",
    "write_csv",
    "x_upper_tight",
]
