import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import mimoslnr
from mimoslnr import cli, linalg, oracles
from mimoslnr.asymptotic import gamma_exp_common, gamma_exp_even, gamma_uncorrelated
from mimoslnr.channel import (
    PROFILE_KINDS, SystemConfig, build_correlation, trial_rng, user_phases
)
from mimoslnr.cli import EXIT_BROKEN_PIPE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from mimoslnr.oracles import solve_fixed_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """The environment of a ``python -m mimoslnr`` child that imports this checkout."""
    src = os.path.dirname(os.path.dirname(mimoslnr.__file__))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestLoadingCommand:
    def test_clamped_at_low_snr(self, capsys):
        code, out, _ = run_cli(capsys, "loading", "--snr-db", "0")
        assert code == EXIT_OK
        assert "alpha_star = 1.000000" in out
        assert "method = clamped-at-one" in out

    def test_clamped_far_below_threshold(self, capsys):
        # At eta ~ 2.8e8 the sign of dfdx(1, eta) cancels; this exited 2.
        code, out, _ = run_cli(capsys, "loading", "--snr-db=-84.5")
        assert code == EXIT_OK
        assert "x_star = 1.000000" in out
        assert "method = clamped-at-one" in out

    def test_interior_at_high_snr(self, capsys):
        code, out, _ = run_cli(capsys, "loading", "--snr-db", "20")
        assert code == EXIT_OK
        assert "method = exact-root-find" in out
        assert "x_high_snr_approx" in out

    def test_rate_units_bits(self, capsys):
        _, out_nats, _ = run_cli(capsys, "loading", "--snr-db", "0")
        _, out_bits, _ = run_cli(capsys, "loading", "--snr-db", "0", "--rate-units", "bits")
        nats = float([l for l in out_nats.splitlines() if l.startswith("objective_nats")][0].split("=")[1])
        bits = float([l for l in out_bits.splitlines() if l.startswith("objective_bits")][0].split("=")[1])
        assert bits == pytest.approx(nats / np.log(2.0), abs=1e-5)


class TestAsymptoticCommand:
    def test_identity_square_at_zero_db(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotic", "--n", "64", "--k", "64", "--snr-db", "0", "--profile", "identity"
        )
        assert code == EXIT_OK
        assert "0,0.618034" in out

    def test_echoes_resolved_config(self, capsys):
        _, out, _ = run_cli(capsys, "asymptotic", "--n", "8", "--k", "4")
        assert "# resolved configuration" in out
        assert "# n = 8" in out and "# k = 4" in out

    @pytest.mark.parametrize("n,snr_db", [(8, 70.0), (16, 60.0)])
    def test_full_load_high_snr_gives_closed_form(self, capsys, n, snr_db):
        # Plain Picard iteration ran out its 10 000 steps on these inputs.
        code, out, _ = run_cli(capsys, "asymptotic", "--n", str(n), "--k", str(n),
                               "--snr-db", str(snr_db))
        assert code == EXIT_OK
        gamma = gamma_uncorrelated(1.0, 10.0 ** (-snr_db / 10.0))
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert rows == [f"{k},{gamma:.6f}" for k in range(n)]

    def test_huge_tol_stops_early_with_an_honest_bound(self, capsys):
        # README: any positive finite --tol is accepted. One this loose stops
        # the solver after a few steps, and the printed error bound still
        # covers the distance to the fixed point, here the closed form.
        code, out, _ = run_cli(capsys, "asymptotic", "--tol", "1e300")
        assert code == EXIT_OK
        line = next(l for l in out.splitlines() if l.startswith("# converged in"))
        bound = float(line.rsplit(" ", 1)[1])
        gammas = [float(l.split(",")[1]) for l in out.splitlines() if l and l[0].isdigit()]
        assert len(gammas) == 32 and np.all(np.isfinite(gammas)) and np.isfinite(bound)
        assert max(abs(g - gamma_uncorrelated(2.0, 0.01)) for g in gammas) <= bound

    def test_reports_solver_diagnostics(self, capsys):
        _, out, _ = run_cli(capsys, "asymptotic", "--n", "8", "--k", "4")
        line = next(l for l in out.splitlines() if l.startswith("# converged in"))
        assert "residual" in line and "contraction" in line and "error bound" in line

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_every_profile_matches_dense_solver(self, capsys, kind):
        # The command solves on the Toeplitz lags; the dense solver gets the
        # users' matrices of each profile kind (identity is rho = 0).
        N, K, rho, theta, seed, eta = 8, 5, 0.6, 0.7, 3, 0.01
        code, out, _ = run_cli(capsys, "asymptotic", "--n", str(N), "--k", str(K),
                               "--profile", kind, "--rho", str(rho), "--theta", str(theta),
                               "--seed", str(seed), "--snr-db", "20")
        assert code == EXIT_OK
        config = SystemConfig.make(N, K, 0.0, kind=kind, rho=rho, theta=theta)
        dense_rho = 0.0 if kind == "identity" else rho
        theta_k = user_phases(config, trial_rng(seed, 0))
        dense = solve_fixed_point([build_correlation(N, dense_rho, t) for t in theta_k], eta)
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert rows == [f"{k},{g:.6f}" for k, g in enumerate(dense.gamma)]


    @pytest.mark.parametrize("kind,route", [
        ("exp-even", gamma_exp_even), ("exp-common", gamma_exp_common),
    ])
    @pytest.mark.parametrize("n,k,snr_db,rho", [
        (64, 64, 150.0, 0.99), (64, 64, 150.0, 0.999), (16, 12, 40.0, 0.9),
    ])
    def test_scalar_profiles_print_the_scalar_value(self, capsys, kind, route, n, k, snr_db, rho):
        # The Toeplitz solver printed 2.0% too much here for exp-even at
        # 150 dB and rho 0.99, and exited 2 at rho 0.999.
        code, out, _ = run_cli(capsys, "asymptotic", "--profile", kind, "--n", str(n),
                               "--k", str(k), "--snr-db", str(snr_db), "--rho", str(rho))
        assert code == EXIT_OK
        eta = 10.0 ** (-snr_db / 10.0)
        gamma = route(n, k, rho, eta)
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert rows == [f"{j},{gamma:.6f}" for j in range(k)]
        if kind == "exp-even" and n == k:
            # With K = N the user average is the identity.
            assert rows[0] == f"0,{gamma_uncorrelated(1.0, eta):.6f}" == "0,31622776.101684"
        assert any(line.startswith("# scalar fixed point in ") for line in out.splitlines())


class TestMetricsCommand:
    def test_prints_per_user_rows(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--n", "8", "--k", "4", "--trials", "1")
        assert code == EXIT_OK
        assert "user,slnr,sinr,power_sq" in out
        data_rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(data_rows) == 4


class TestSweepCommands:
    def test_sweep_loading_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "loading.csv"
        code, _, _ = run_cli(capsys, "sweep-loading", "--out", str(out_path),
                             "--snr-grid", "0:10:6")
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# experiment = loading"
        # The full resolved configuration rides along as metadata comments.
        assert "# rate_units = nats" in lines
        assert "# seed = 0" in lines

    def test_sweep_loading_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--snr-grid", "0:20:11"]
        assert run_cli(capsys, "sweep-loading", "--out", str(a), *args)[0] == EXIT_OK
        assert run_cli(capsys, "sweep-loading", "--out", str(b), *args)[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_loading_stderr_empty_at_extreme_snr(self, tmp_path):
        # The brute-force column printed numpy's divide-by-zero warning here.
        # A fresh process, because pytest collects warnings instead of printing them.
        run = subprocess.run(
            [sys.executable, "-m", "mimoslnr", "sweep-loading",
             "--out", str(tmp_path / "loading.csv"), "--snr-grid=100:300:9"],
            env=child_env(), capture_output=True, timeout=300,
        )
        assert run.returncode == EXIT_OK
        assert run.stderr == b""

    def test_sweep_cdf(self, capsys, tmp_path):
        out_path = tmp_path / "cdf.csv"
        code, _, _ = run_cli(capsys, "sweep-cdf", "--out", str(out_path),
                             "--n", "8", "--k", "4", "--trials", "3")
        assert code == EXIT_OK
        text = out_path.read_text()
        assert text.splitlines()[0] == "# experiment = cdf"
        assert "cdf_level,slnr,sinr,gamma_asymptotic" in text

    def test_sweep_correlation(self, capsys, tmp_path):
        out_path = tmp_path / "corr.csv"
        code, _, _ = run_cli(capsys, "sweep-correlation", "--out", str(out_path),
                             "--n", "16", "--k", "12", "--rho-grid", "0:0.6:3",
                             "--theta-draws", "2")
        assert code == EXIT_OK
        assert "gamma_exp_common" in out_path.read_text()

    def test_sweep_correlation_at_very_low_snr(self, capsys, tmp_path):
        # At -90 dB the far end of the scalar search's bracket sat within
        # rounding of the root, and the command exited 1.
        out_path = tmp_path / "corr.csv"
        code, _, _ = run_cli(capsys, "sweep-correlation", "--out", str(out_path),
                             "--n", "64", "--k", "32", "--snr-db", "-90")
        assert code == EXIT_OK
        lines = [line for line in out_path.read_text().splitlines() if not line.startswith("#")]
        header, first = lines[0].split(","), [float(v) for v in lines[1].split(",")]
        row = dict(zip(header, first))
        # At rho = 0 every profile is uncorrelated; 1e-12 relative allows for
        # the Toeplitz solver's rounding.
        closed = gamma_uncorrelated(2.0, 1e9)
        assert row.pop("rho") == 0.0
        for name, value in row.items():
            assert value == pytest.approx(closed, rel=1e-12), name

    def test_sweep_cdf_bytes_independent_of_blas_threads(self, tmp_path):
        # A threaded Cholesky rounds differently for each thread count; the
        # library runs its kernels on one thread, so the CSV cannot depend on it.
        outputs = csv_bytes_per_blas_threads(tmp_path, "sweep-cdf")
        assert outputs[0] == outputs[1]

    def test_sweep_correlation_bytes_independent_of_blas_threads(self, tmp_path):
        # The Toeplitz fixed point factorizes with zpotrf in every iteration.
        outputs = csv_bytes_per_blas_threads(
            tmp_path, "sweep-correlation", "--n", "16", "--k", "12",
            "--rho-grid", "0:0.9:4", "--theta-draws", "2",
        )
        assert outputs[0] == outputs[1]

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep-loading")
        assert code == EXIT_USAGE
        assert "out" in err

    def test_line_break_in_a_string_key_is_usage_error(self, capsys, tmp_path):
        # sweep-loading does not parse rho_grid, only echoes it: the stray
        # line sat above the header of the echo and of the CSV.
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "sweep-loading", "--snr-grid", "0:10:3", "--rho-grid", "0:1:2\nboom",
            "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert "rho_grid" in err
        assert stdout == ""
        assert not out.exists()


class TestClosedStdout:
    """A reader that stops early, as ``| head -1`` does, ends the run quietly."""

    # An empty PYTHONUNBUFFERED counts as unset: stdout is then flushed once, at the end.
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_reader_closes_after_the_first_line(self, unbuffered):
        # 8192 rows, about 110 KB: more than a pipe holds, so the command is
        # still writing when the reader closes. This printed a BrokenPipeError
        # traceback and exited 1, or, buffered, "Exception ignored" and 120.
        proc = subprocess.Popen(
            [sys.executable, "-m", "mimoslnr", "asymptotic", "--profile", "exp-common",
             "--n", "64", "--k", "8192"],
            env=child_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"# resolved configuration\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert err == b""

    def test_csv_written_before_the_pipe_broke_stays_whole(self, capsys, tmp_path):
        # Buffered, the echo and the report reach stdout at the final flush,
        # after the CSV is closed; the reader is gone before the run starts.
        whole, out = tmp_path / "whole.csv", tmp_path / "out.csv"
        assert main(["sweep-loading", "--out", str(whole)]) == EXIT_OK
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "mimoslnr", "sweep-loading", "--out", str(out)],
                env=child_env(PYTHONUNBUFFERED=""), stdout=write_end, stderr=subprocess.PIPE,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert run.returncode == EXIT_BROKEN_PIPE
        assert run.stderr == b""
        assert out.read_bytes() == whole.read_bytes()


def csv_bytes_per_blas_threads(tmp_path, command, *args):
    """CSV bytes that ``command`` writes under ``OPENBLAS_NUM_THREADS=1`` and ``=2``."""
    outputs = []
    for threads in ("1", "2"):
        out_path = tmp_path / f"{command}-{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "mimoslnr", command, "--out", str(out_path), *args],
            env=child_env(OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True, timeout=300,
        )
        outputs.append(out_path.read_bytes())
    return outputs


class TestConfigFile:
    def test_flags_equivalent_to_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\nk = 8\nsnr-db = 10\ntrials = 2\nseed = 4\n")
        code_a, out_a, _ = run_cli(capsys, "metrics", "--config", str(cfg))
        code_b, out_b, _ = run_cli(capsys, "metrics", "--n", "16", "--k", "8",
                                   "--snr-db", "10", "--trials", "2", "--seed", "4")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr_db = 0\n")
        _, out, _ = run_cli(capsys, "loading", "--config", str(cfg), "--snr-db", "20")
        assert "method = exact-root-find" in out

    def test_unknown_key_named_in_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("antennas = 7\n")
        code, _, err = run_cli(capsys, "loading", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "antennas" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "loading", "--config", str(tmp_path / "nope.cfg"))
        assert code == EXIT_USAGE
        assert "nope.cfg" in err


class TestErrorPaths:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "loading", "--bogus", "1")
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_invalid_rho_named(self, capsys):
        code, _, err = run_cli(capsys, "asymptotic", "--rho", "1.5")
        assert code == EXIT_USAGE
        assert "rho" in err

    def test_invalid_trials_named(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "--trials", "0")
        assert code == EXIT_USAGE
        assert "trials" in err

    def test_numerical_failure_exit_code(self, capsys):
        # rho one ulp below 1 with one user and eta = 1e-30 leaves the
        # resolvent numerically singular: the Cholesky factorization fails
        # and the CLI maps the failure to exit code 2.
        code, _, err = run_cli(capsys, "asymptotic", "--k", "1", "--profile", "exp-random",
                               "--rho", "0.9999999999999999", "--snr-db", "300")
        assert code == EXIT_NUMERICAL
        assert "Toeplitz resolvent is not positive definite" in err

    def test_eigensolver_failure_in_sweep_is_numerical_failure(self, capsys, monkeypatch, tmp_path):
        # The scalar columns' tridiagonal eigensolver reports that it did not converge.
        def fail(d, e, z, **kwargs):
            return d, e, z, d.size + 1

        monkeypatch.setattr(linalg, "dpteqr", fail)
        code, _, err = run_cli(capsys, "sweep-correlation", "--n", "8", "--k", "4",
                               "--theta-draws", "1", "--out", str(tmp_path / "sweep.csv"))
        assert code == EXIT_NUMERICAL
        assert "eigenvalues did not converge for a 8x8" in err

    def test_singular_gram_is_numerical_failure(self, capsys, monkeypatch):
        # Users 0 and 1 share one channel with exact entries, so the Gram
        # matrix H* H is singular in floats and the shift K*eta = 4e-40
        # vanishes against it: the Cholesky factorization fails, exit 2.
        H = np.zeros((8, 4), dtype=complex)
        H[0, :2] = 2.0
        H[2, 2] = H[3, 3] = 1.0
        monkeypatch.setattr(cli, "sample_channel", lambda config, trial: SimpleNamespace(H=H))
        code, _, err = run_cli(capsys, "metrics", "--n", "8", "--k", "4", "--snr-db", "400")
        assert code == EXIT_NUMERICAL
        assert "not positive definite" in err

    @pytest.mark.parametrize("n,k", [(8, 4), (8, 8), (4, 8)])
    def test_metrics_finite_at_400_db(self, capsys, n, k):
        # The smaller Gram matrix of a sampled channel has full rank, so
        # even a vanishing shift leaves it positive definite.
        code, out, _ = run_cli(capsys, "metrics", "--n", str(n), "--k", str(k), "--snr-db", "400")
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0] == "user,slnr,sinr,power_sq"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (k, 4)
        assert np.all(np.isfinite(rows[:, 1:]))

    @pytest.mark.parametrize("argv", [
        ("loading", "--snr-db", "nan"),
        ("metrics", "--n", "8", "--k", "4", "--snr-db", "-4000"),
        ("asymptotic", "--n", "8", "--k", "4", "--snr-db", "nan"),
    ])
    def test_invalid_snr_named(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert "snr_db" in err

    def test_invalid_snr_rejected_by_sweep_loading(self, capsys, tmp_path):
        out_path = tmp_path / "loading.csv"
        code, _, err = run_cli(capsys, "sweep-loading", "--snr-db", "nan", "--out", str(out_path))
        assert code == EXIT_USAGE
        assert "snr_db" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ("loading", "--snr-db", "20", "--tol", "nan"),
        ("asymptotic", "--n", "8", "--k", "4", "--tol", "nan"),
    ])
    def test_nan_tol_named(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert "tol" in err

    def test_tol_below_float_spacing(self, capsys):
        code, out, _ = run_cli(capsys, "loading", "--snr-db", "20", "--tol", "1e-300")
        assert code == EXIT_OK
        assert "x_star = 1.299883" in out

    @pytest.mark.parametrize("flag,value,key", [
        ("--tol", "nan", "tol"),
        ("--tol", "-1", "tol"),
        ("--theta-draws", "0", "theta_draws"),
        ("--snr-db", "nan", "snr_db"),
        ("--theta", "nan", "theta"),
    ])
    @pytest.mark.parametrize("command", [
        "asymptotic", "metrics", "loading", "sweep-cdf", "sweep-correlation", "sweep-loading",
        "selftest",
    ])
    def test_every_command_rejects_the_same_values(self, capsys, command, flag, value, key):
        code, _, err = run_cli(capsys, command, "--n", "8", "--k", "4", flag, value)
        assert code == EXIT_USAGE
        assert key in err

    @pytest.mark.parametrize("line,key", [
        ("profile = gaussian", "profile"),
        ("rate_units = furlongs", "rate_units"),
    ])
    def test_config_file_choices_named(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "loading", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert key in err


class TestSelftest:
    def test_passes_on_clean_build(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_OK
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_prints_each_check_in_order(self, capsys):
        _, out, _ = run_cli(capsys, "selftest")
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines == [
            "ok   closed-form vs fixed point",
            "ok   threshold derivative residual",
            "ok   lambert-w residuals",
            "ok   psd sqrt roundtrip",
            "ok   slnr route equivalence",
            "ok   even-theta sum identity",
            "ok   exact vs brute force",
            "ok   common-R upper bound",
            "selftest: all checks passed",
        ]

    def test_reports_a_failing_check_and_runs_the_rest(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "slnr_leave_one_out", lambda H, eta: np.ones(H.shape[1]))
        code, out, _ = run_cli(capsys, "selftest")
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert code == EXIT_NUMERICAL
        assert lines[4].startswith("FAIL slnr route equivalence:")
        assert lines[:4] + lines[5:] == [
            "ok   closed-form vs fixed point",
            "ok   threshold derivative residual",
            "ok   lambert-w residuals",
            "ok   psd sqrt roundtrip",
            "ok   even-theta sum identity",
            "ok   exact vs brute force",
            "ok   common-R upper bound",
            "selftest: 1 check(s) failed",
        ]
