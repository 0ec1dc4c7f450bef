"""Command-line front end.

Subcommands: ``asymptotic``, ``metrics``, ``loading``, ``sweep-cdf``,
``sweep-correlation``, ``sweep-loading``, ``selftest``. Parameters resolve
in three layers: built-in defaults, then a ``key = value`` config file
(``--config``), then explicit flags. Every run echoes the fully resolved
configuration. Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

import argparse
import math
import sys

import numpy as np

from .asymptotic import (
    FixedPointError,
    check_common_r_bound,
    gamma_uncorrelated,
    solve_exponential_fixed_point,
    solve_fixed_point,
)
from .channel import (
    PROFILE_KINDS,
    SystemConfig,
    build_correlation,
    check_count,
    check_positive_finite,
    eta_from_snr_db,
    sample_channel,
    trial_rng,
    user_phases,
)
from .experiments import (
    run_cdf_experiment,
    run_correlation_sweep,
    run_loading_sweep,
    brute_force_optimal_x,
    write_csv,
)
from .linalg import EigConvergenceError, NotPsdError, psd_sqrt
from .loading import (
    BracketError,
    dfdx,
    eta_threshold,
    lambert_w0,
    optimal_x_exact,
    optimal_x_high_snr,
    optimal_x_low_snr,
)
from .precoding import compute_metrics, slnr_leave_one_out

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_NUMERICAL_ERRORS = (
    FixedPointError, BracketError, NotPsdError, EigConvergenceError, np.linalg.LinAlgError
)

# Every resolvable key: type, default, help text and allowed choices (None
# for any value). Each key is a flag ``--key-name`` and a config-file key;
# flags override the config file, which overrides the defaults.
_KEYS = {
    "n": (int, 64, "antenna count N", None),
    "k": (int, 32, "user count K", None),
    "snr_db": (float, 20.0, "SNR in dB", None),
    "profile": (str, "identity", "correlation profile kind", PROFILE_KINDS),
    "rho": (float, 0.0, "correlation coefficient in [0,1)", None),
    "theta": (float, 0.0, "common phase in radians", None),
    "trials": (int, 100, "Monte Carlo trials", None),
    "seed": (int, 0, "random seed", None),
    "out": (str, None, "output CSV path (sweep commands)", None),
    "tol": (float, 1e-12, "solver tolerance", None),
    "rate_units": (str, "nats", "units of reported rates", ("nats", "bits")),
    "rho_grid": (str, "0.0:0.9:10", "rho grid lo:hi:count", None),
    "snr_grid": (str, "0.0:40.0:81", "SNR grid lo:hi:count", None),
    "theta_draws": (int, 20, "independent theta draws for exp-random averaging", None),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; remap to the documented 1.
    def error(self, message):
        raise UsageError(message)


def _add_flags(sub):
    sub.add_argument("--config", default=None, help="key = value config file")
    for key, (kind, _, help_text, choices) in _KEYS.items():
        sub.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=kind, choices=choices,
            default=None, help=help_text,
        )


def _build_parser():
    parser = _Parser(prog="mimoslnr", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("asymptotic", "print the deterministic per-user SLNR for a profile"),
        ("metrics", "sample one channel and print per-user SLNR/SINR"),
        ("loading", "print the optimal user loading for a given SNR"),
        ("sweep-cdf", "write SLNR/SINR CDF samples against the asymptotic value"),
        ("sweep-correlation", "write asymptotic SLNR versus rho for three theta schemes"),
        ("sweep-loading", "write optimal loading versus SNR with approximations"),
        ("selftest", "run quick oracle cross-checks; nonzero exit on failure"),
    ]:
        sub = commands.add_parser(name, help=help_text)
        _add_flags(sub)
    return parser


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _coerce(key, value):
    kind, _, _, choices = _KEYS[key]
    try:
        value = kind(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid value for {key!r}: {value!r}") from exc
    if choices is not None and value not in choices:
        raise UsageError(f"invalid value for {key!r}: {value!r} (choose from {', '.join(choices)})")
    return value


def _resolve(args):
    """Resolved key values and the :class:`SystemConfig` built from them.

    ``SystemConfig`` validates the system keys. ``tol`` and ``theta_draws``,
    which it does not hold, go through the checks the library applies to
    them, so every command rejects the same values.
    """
    resolved = {key: default for key, (_, default, _, _) in _KEYS.items()}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            resolved[key] = _coerce(key, value)
    for key in _KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    config = SystemConfig.make(
        N=resolved["n"],
        K=resolved["k"],
        snr_db=resolved["snr_db"],
        kind=resolved["profile"],
        rho=resolved["rho"],
        theta=resolved["theta"],
        trials=resolved["trials"],
        seed=resolved["seed"],
    )
    check_positive_finite(resolved["tol"], "tol")
    check_count(resolved["theta_draws"], "theta_draws")
    return resolved, config


def _parse_grid(text, key):
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise UsageError(f"invalid value for {key!r}: {text!r} (expected lo:hi:count)") from exc
    if count < 1:
        raise UsageError(f"invalid value for {key!r}: count must be >= 1")
    return np.linspace(lo, hi, count)


def _echo(resolved):
    print("# resolved configuration")
    for key in sorted(resolved):
        value = resolved[key]
        if value is None:
            continue
        print(f"# {key} = {value}")


def _rate(value, units):
    return value if units == "nats" else value / math.log(2.0)


def _cmd_asymptotic(resolved, config):
    # Every profile kind is an exponential profile: identity is rho = 0.
    rho = 0.0 if config.kind == "identity" else config.rho
    theta = user_phases(config, trial_rng(config.seed, 0))
    solution = solve_exponential_fixed_point(config.N, rho, theta, config.eta, tol=resolved["tol"])
    print(
        f"# converged in {solution.iterations} iterations, residual {solution.residual:.3e}, "
        f"contraction {solution.contraction:.6f}, error bound {solution.error_bound:.3e}"
    )
    print("user,gamma")
    for k, g in enumerate(solution.gamma):
        print(f"{k},{g:.6f}")
    return EXIT_OK


def _cmd_metrics(resolved, config):
    realization = sample_channel(config, 0)
    metrics = compute_metrics(realization.H, config.eta)
    print("user,slnr,sinr,power_sq")
    for k in range(config.K):
        print(f"{k},{metrics.slnr[k]:.6f},{metrics.sinr[k]:.6f},{metrics.power_sq[k]:.6f}")
    return EXIT_OK


def _cmd_loading(resolved, config):
    eta = config.eta
    units = resolved["rate_units"]
    solution = optimal_x_exact(eta, tol=min(resolved["tol"], 1e-10))
    eta_o = eta_threshold()
    print(f"snr_db = {resolved['snr_db']}")
    print(f"eta = {eta!r}")
    print(f"x_star = {solution.x_star:.6f}")
    print(f"alpha_star = {solution.alpha_star:.6f}")
    print(f"method = {solution.method}")
    print(f"objective_{units} = {_rate(solution.objective, units):.6f}")
    if eta < eta_o:
        print(f"x_low_snr_approx = {optimal_x_low_snr(eta):.6f}")
        print(f"x_high_snr_approx = {optimal_x_high_snr(eta):.6f}")
    else:
        print("x_low_snr_approx = n/a (eta above threshold)")
        print("x_high_snr_approx = n/a (eta above threshold)")
    return EXIT_OK


def _require_out(resolved):
    if not resolved["out"]:
        raise UsageError("missing required key 'out' (CSV output path)")
    return resolved["out"]


def _merge_resolved(result, resolved):
    # Every CSV carries the full resolved configuration; experiment-specific
    # entries written by the runner take precedence over the echo.
    for key in sorted(resolved):
        if key == "out" or resolved[key] is None:
            continue
        result.metadata.setdefault(key, resolved[key])
    return result


def _cmd_sweep_cdf(resolved, config):
    out = _require_out(resolved)
    result = run_cdf_experiment(config)
    write_csv(_merge_resolved(result, resolved), out)
    print(f"# wrote {out} ({len(result.columns['cdf_level'])} rows)")
    return EXIT_OK


def _cmd_sweep_correlation(resolved, config):
    out = _require_out(resolved)
    rho_grid = _parse_grid(resolved["rho_grid"], "rho_grid")
    result = run_correlation_sweep(
        N=config.N,
        alpha=config.K / config.N,
        snr_db=config.snr_db,
        rho_grid=rho_grid,
        trials_for_random_theta=resolved["theta_draws"],
        seed=config.seed,
        tol=resolved["tol"],
    )
    write_csv(_merge_resolved(result, resolved), out)
    print(f"# wrote {out} ({rho_grid.size} rows)")
    return EXIT_OK


def _cmd_sweep_loading(resolved, config):
    out = _require_out(resolved)
    snr_grid = _parse_grid(resolved["snr_grid"], "snr_grid")
    result = run_loading_sweep(snr_grid)
    write_csv(_merge_resolved(result, resolved), out)
    print(f"# wrote {out} ({snr_grid.size} rows)")
    return EXIT_OK


def _selftest_checks():
    rng = np.random.default_rng(20260810)

    def closed_form_vs_fixed_point():
        for x, snr_db in [(1.0, 0.0), (2.0, 10.0), (4.0, 25.0)]:
            eta = eta_from_snr_db(snr_db)
            K = 8
            N = int(x * K)
            R = [np.eye(N, dtype=complex)] * K
            gamma = solve_fixed_point(R, eta).gamma
            ref = gamma_uncorrelated(x, eta)
            assert np.max(np.abs(gamma - ref)) <= 1e-10 * ref

    def threshold_residual():
        eta_o = eta_threshold()
        assert abs(dfdx(1.0, eta_o)) < 1e-12

    def lambert_residuals():
        for z in [0.0, 0.5, 1.0, math.e, 50.0, -0.25, -1.0 / math.e + 1e-9]:
            w = lambert_w0(z)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))

    def psd_sqrt_roundtrip():
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        R = A @ A.conj().T
        S = psd_sqrt(R)
        assert np.linalg.norm(S @ S - R) <= 1e-9 * np.linalg.norm(R)

    def slnr_route_equivalence():
        H = (rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))) / np.sqrt(2)
        fast = compute_metrics(H, 0.01).slnr
        slow = slnr_leave_one_out(H, 0.01)
        assert np.max(np.abs(fast - slow) / slow) <= 1e-8

    def even_theta_sum_identity():
        config = SystemConfig.make(8, 8, 0.0, kind="exp-even")
        total = np.sum([build_correlation(8, 0.5, t) for t in user_phases(config)], axis=0)
        assert np.max(np.abs(total - 8.0 * np.eye(8))) <= 1e-9

    def exact_vs_brute_force():
        for eta in [0.01, 0.05, 0.2]:
            x_exact = optimal_x_exact(eta).x_star
            x_brute = brute_force_optimal_x(eta)
            assert abs(x_exact - x_brute) <= 1e-3

    def common_r_bound():
        for _ in range(50):
            lam = rng.dirichlet(np.ones(16)) * 16
            check = check_common_r_bound(lam, K=8, eta=0.05)
            assert check.holds

    return [
        ("closed-form vs fixed point", closed_form_vs_fixed_point),
        ("threshold derivative residual", threshold_residual),
        ("lambert-w residuals", lambert_residuals),
        ("psd sqrt roundtrip", psd_sqrt_roundtrip),
        ("slnr route equivalence", slnr_route_equivalence),
        ("even-theta sum identity", even_theta_sum_identity),
        ("exact vs brute force", exact_vs_brute_force),
        ("common-R upper bound", common_r_bound),
    ]


def _cmd_selftest(resolved, config):
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # report every failing check, keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return EXIT_NUMERICAL
    print("selftest: all checks passed")
    return EXIT_OK


_COMMANDS = {
    "asymptotic": _cmd_asymptotic,
    "metrics": _cmd_metrics,
    "loading": _cmd_loading,
    "sweep-cdf": _cmd_sweep_cdf,
    "sweep-correlation": _cmd_sweep_correlation,
    "sweep-loading": _cmd_sweep_loading,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        resolved, config = _resolve(args)
        _echo(resolved)
        return _COMMANDS[args.command](resolved, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
