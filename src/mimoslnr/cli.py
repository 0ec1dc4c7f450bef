"""Command-line front end.

Subcommands: ``asymptotic``, ``metrics``, ``loading``, ``sweep-cdf``,
``sweep-correlation``, ``sweep-loading``, ``selftest``. Parameters resolve
in three layers: built-in defaults, then a ``key = value`` config file
(``--config``), then explicit flags. Every run echoes the fully resolved
configuration. Exit codes: 0 success, 1 usage error, 2 numerical failure,
141 when the reader closes stdout before the output ends.
"""

import argparse
import math
import os
import sys

import numpy as np

from .asymptotic import DEFAULT_TOL, FixedPointError, _exp_root, solve_exponential_fixed_point
from .channel import (
    PROFILE_KINDS, SystemConfig, check_count, check_positive_finite, sample_channel, trial_rng,
    user_phases,
)
from .experiments import run_cdf_experiment, run_correlation_sweep, run_loading_sweep, write_csv
from .linalg import EigConvergenceError, NotPsdError
from .loading import (
    LOADING_TOL, BracketError, eta_threshold, optimal_x_exact, optimal_x_high_snr,
    optimal_x_low_snr,
)
from .oracles import SELFTEST_CHECKS
from .precoding import compute_metrics

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
# The status a shell reports for a process that SIGPIPE ends (128 + 13).
EXIT_BROKEN_PIPE = 141

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
    "tol": (float, DEFAULT_TOL, "solver tolerance", None),
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
    for name, (_, help_text) in _COMMANDS.items():
        _add_flags(commands.add_parser(name, help=help_text))
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
    them, so every command rejects the same values. Every command echoes
    every key, so a string key that holds a line break is rejected for all.
    """
    resolved = {key: default for key, (_, default, _, _) in _KEYS.items()}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            resolved[key] = _coerce(key, value)
    for key in _KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    for key, value in resolved.items():
        if isinstance(value, str) and ("\n" in value or "\r" in value):
            raise UsageError(f"invalid value for {key!r}: {value!r} (holds a line break)")
    config = SystemConfig.make(
        resolved["n"], resolved["k"], resolved["snr_db"], kind=resolved["profile"],
        rho=resolved["rho"], theta=resolved["theta"], trials=resolved["trials"],
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
    tol = resolved["tol"]
    if config.kind in ("exp-even", "exp-common"):
        # One value for every user: the scalar fixed point, in its certificate.
        period = config.K if config.kind == "exp-even" else 1
        root = _exp_root(config.N, config.K, config.rho, config.eta, tol, period)
        print(f"# scalar fixed point in {root.evaluations} evaluations, "
              f"root in [{root.lo!r}, {root.hi!r}]")
        gammas = [root.root] * config.K
    else:
        # identity is the exponential profile at rho = 0.
        rho = 0.0 if config.kind == "identity" else config.rho
        theta = user_phases(config, trial_rng(config.seed, 0))
        solution = solve_exponential_fixed_point(config.N, rho, theta, config.eta, tol=tol)
        print(
            f"# converged in {solution.iterations} iterations, residual {solution.residual:.3e}, "
            f"contraction {solution.contraction:.6f}, error bound {solution.error_bound:.3e}"
        )
        gammas = solution.gamma
    print("user,gamma")
    for k, g in enumerate(gammas):
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
    solution = optimal_x_exact(eta, tol=min(resolved["tol"], LOADING_TOL))
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


def _write_sweep(resolved, run):
    """Run a sweep and write its CSV to ``out``, which is checked first.

    Every CSV carries the full resolved configuration; experiment-specific
    entries written by the runner take precedence over the echo.
    """
    out = resolved["out"]
    if not out:
        raise UsageError("missing required key 'out' (CSV output path)")
    result = run()
    for key in sorted(resolved):
        if key != "out" and resolved[key] is not None:
            result.metadata.setdefault(key, resolved[key])
    write_csv(result, out)
    print(f"# wrote {out} ({len(next(iter(result.columns.values())))} rows)")
    return EXIT_OK


def _cmd_sweep_cdf(resolved, config):
    return _write_sweep(resolved, lambda: run_cdf_experiment(config))


def _cmd_sweep_correlation(resolved, config):
    return _write_sweep(resolved, lambda: run_correlation_sweep(
        N=config.N, alpha=config.K / config.N, snr_db=config.snr_db,
        rho_grid=_parse_grid(resolved["rho_grid"], "rho_grid"),
        trials_for_random_theta=resolved["theta_draws"], seed=config.seed, tol=resolved["tol"],
    ))


def _cmd_sweep_loading(resolved, config):
    return _write_sweep(
        resolved, lambda: run_loading_sweep(_parse_grid(resolved["snr_grid"], "snr_grid"))
    )


def _cmd_selftest(resolved, config):
    rng = np.random.default_rng(20260810)
    failures = 0
    for name, check in SELFTEST_CHECKS:
        try:
            check(rng)
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


# The one declaration of each subcommand: name -> (handler, help text).
_COMMANDS = {
    "asymptotic": (_cmd_asymptotic, "print the deterministic per-user SLNR for a profile"),
    "metrics": (_cmd_metrics, "sample one channel and print per-user SLNR/SINR"),
    "loading": (_cmd_loading, "print the optimal user loading for a given SNR"),
    "sweep-cdf": (_cmd_sweep_cdf, "write SLNR/SINR CDF samples against the asymptotic value"),
    "sweep-correlation": (
        _cmd_sweep_correlation, "write asymptotic SLNR versus rho for three theta schemes"
    ),
    "sweep-loading": (_cmd_sweep_loading, "write optimal loading versus SNR with approximations"),
    "selftest": (_cmd_selftest, "run quick oracle cross-checks; nonzero exit on failure"),
}


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        resolved, config = _resolve(args)
        _echo(resolved)
        return _COMMANDS[args.command][0](resolved, config)
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
    """Run :func:`main` as the process and exit with its code.

    A reader that closes stdout early (``| head -1``) ends the run with
    ``EXIT_BROKEN_PIPE`` and nothing on stderr: stdout is flushed here, where
    the failed write is caught, and then pointed at ``os.devnull`` for the
    interpreter's own flush at exit.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
