import os
import subprocess
import sys

import numpy as np
import pytest

import mimoslnr
from mimoslnr.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadingCommand:
    def test_clamped_at_low_snr(self, capsys):
        code, out, _ = run_cli(capsys, "loading", "--snr-db", "0")
        assert code == EXIT_OK
        assert "alpha_star = 1.000000" in out
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

    def test_sweep_cdf_bytes_independent_of_blas_threads(self, tmp_path):
        # A threaded Cholesky rounds differently for each thread count; the
        # library runs its kernels on one thread, so the CSV cannot depend on it.
        src = os.path.dirname(os.path.dirname(mimoslnr.__file__))
        outputs = []
        for threads in ("1", "2"):
            out_path = tmp_path / f"cdf-{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "mimoslnr", "sweep-cdf", "--out", str(out_path)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep-loading")
        assert code == EXIT_USAGE
        assert "out" in err


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
        # At 70 dB with x=1 the Picard contraction factor is 1 - 2*sqrt(eta),
        # needing ~44k sweeps for the default tolerance; the iteration cap
        # trips first and the CLI maps the failure to exit code 2.
        code, _, err = run_cli(capsys, "asymptotic", "--n", "8", "--k", "8",
                               "--snr-db", "70")
        assert code == EXIT_NUMERICAL
        assert "did not converge" in err

    def test_singular_gram_is_numerical_failure(self, capsys):
        # At 400 dB the shift K*eta vanishes against the rank-K Gram matrix
        # H H* (N > K), so the Cholesky factorization fails: exit 2, not 1.
        code, _, err = run_cli(capsys, "metrics", "--n", "8", "--k", "4", "--snr-db", "400")
        assert code == EXIT_NUMERICAL
        assert "not positive definite" in err

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
