import numpy as np
import pytest

from mimoslnr.channel import (
    CorrelationProfile,
    SystemConfig,
    build_correlation,
    eta_from_snr_db,
    sample_channel,
    trial_rng,
)


def profile(kind, N, K, rho=0.0, theta=0.0):
    return CorrelationProfile(kind=kind, N=N, K=K, rho=rho, theta=theta)


class TestBuildCorrelation:
    def test_identity_kind(self):
        R = build_correlation(profile("identity", 6, 4), 2)
        np.testing.assert_array_equal(R, np.eye(6))

    @pytest.mark.parametrize("kind", ["exp-even", "exp-common"])
    def test_rho_zero_collapses_to_identity(self, kind):
        R = build_correlation(profile(kind, 5, 3, rho=0.0, theta=1.3), 1)
        np.testing.assert_array_equal(R, np.eye(5))

    def test_exponential_entries(self):
        # rho=1/2 with zero phase: entries are (1/2)^|m-n|.
        R = build_correlation(profile("exp-even", 3, 4, rho=0.5), 0)
        expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        np.testing.assert_allclose(R, expected, atol=1e-15)

    def test_unit_diagonal_and_trace(self):
        for kind, theta in [("exp-even", 0.0), ("exp-common", 0.9)]:
            R = build_correlation(profile(kind, 9, 5, rho=0.7, theta=theta), 3)
            np.testing.assert_array_equal(R.diagonal(), np.ones(9))

    def test_hermitian_with_phase(self):
        R = build_correlation(profile("exp-even", 8, 5, rho=0.6), 3)
        assert np.array_equal(R, R.conj().T)

    def test_random_theta_uses_rng(self):
        p = profile("exp-random", 4, 2, rho=0.5)
        R1 = build_correlation(p, 0, trial_rng(0, 0))
        R2 = build_correlation(p, 0, trial_rng(0, 1))
        assert not np.allclose(R1, R2)
        with pytest.raises(ValueError):
            build_correlation(p, 0)

    def test_user_index_range(self):
        with pytest.raises(ValueError):
            build_correlation(profile("identity", 4, 2), 2)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            profile("exp-even", 4, 2, rho=1.0)
        with pytest.raises(ValueError):
            profile("exp-even", 4, 2, rho=-0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            profile("gaussian", 4, 2)


class TestSumCorrelations:
    def test_even_theta_average_is_identity(self):
        # The evenly spaced phases cancel every off-diagonal lag:
        # sum_k exp(1j*2*pi*q*k/K) = 0 for 0 < q < K. With N <= K all lags
        # stay below K, so the user average is exactly the identity.
        p = profile("exp-even", 8, 8, rho=0.5)
        total = np.sum([build_correlation(p, k) for k in range(8)], axis=0)
        assert np.max(np.abs(total - 8.0 * np.eye(8))) <= 1e-9

    @pytest.mark.parametrize("K,rho", [(2, 0.9), (3, 0.3), (17, 0.999)])
    def test_even_theta_average_identity_any_rho(self, K, rho):
        p = profile("exp-even", K, K, rho=rho)
        total = np.sum([build_correlation(p, k) for k in range(K)], axis=0)
        assert np.max(np.abs(total / K - np.eye(K))) <= 1e-9

    def test_even_theta_average_wide_array_small_rho(self):
        # For N > K the lag-K entries survive with weight rho^K; they only
        # stay under the tolerance when rho^K is itself negligible.
        p = profile("exp-even", 24, 16, rho=0.25)
        total = np.sum([build_correlation(p, k) for k in range(16)], axis=0)
        assert np.max(np.abs(total / 16 - np.eye(24))) <= 1e-9


class TestSystemConfig:
    def test_eta_conversion(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=20.0)
        assert cfg.eta == pytest.approx(0.01)
        assert SystemConfig.make(N=8, K=4, snr_db=-10.0).eta == pytest.approx(10.0)

    def test_allows_more_users_than_antennas(self):
        SystemConfig.make(N=4, K=8, snr_db=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig.make(N=8, K=4, snr_db=0.0, trials=0)
        with pytest.raises(ValueError):
            SystemConfig.make(N=8, K=4, snr_db=0.0, seed=-1)
        with pytest.raises(ValueError):
            SystemConfig(N=8, K=4, snr_db=0.0, profile=profile("identity", 8, 2))


class TestEtaFromSnrDb:
    def test_scalar_is_python_float(self):
        eta = eta_from_snr_db(np.float64(17.5))
        assert type(eta) is float and eta == 10.0 ** (-17.5 / 10.0)

    def test_array_matches_elementwise_power(self):
        grid = np.linspace(0.0, 40.0, 81)
        assert np.array_equal(eta_from_snr_db(grid), 10.0 ** (-grid / 10.0))

    @pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf, -4000.0, 4000.0])
    def test_rejects_out_of_range(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            eta_from_snr_db(snr_db)
        with pytest.raises(ValueError, match="snr_db"):
            eta_from_snr_db(np.array([10.0, snr_db]))
        with pytest.raises(ValueError, match="snr_db"):
            SystemConfig.make(N=8, K=4, snr_db=snr_db)


class TestSampleChannel:
    def test_deterministic_for_seed_and_trial(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=10, seed=42)
        a = sample_channel(cfg, 3)
        b = sample_channel(cfg, 3)
        assert np.array_equal(a.H, b.H)

    def test_trials_are_order_independent(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=10, seed=42)
        later_first = sample_channel(cfg, 7).H
        _ = sample_channel(cfg, 0)
        assert np.array_equal(sample_channel(cfg, 7).H, later_first)

    def test_distinct_trials_differ(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=10, seed=42)
        assert not np.allclose(sample_channel(cfg, 0).H, sample_channel(cfg, 1).H)

    def test_trial_out_of_range(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=2)
        with pytest.raises(ValueError):
            sample_channel(cfg, 2)

    def test_correlation_sqrt_roundtrip(self):
        cfg = SystemConfig.make(N=6, K=3, snr_db=10.0, kind="exp-even", rho=0.8, trials=1)
        real = sample_channel(cfg, 0)
        for Rk, Sk in zip(real.R, real.Rsqrt):
            assert np.linalg.norm(Sk @ Sk - Rk) <= 1e-9 * np.linalg.norm(Rk)

    def test_random_theta_correlations_vary_by_trial(self):
        cfg = SystemConfig.make(N=4, K=2, snr_db=10.0, kind="exp-random", rho=0.6, trials=2)
        R0 = sample_channel(cfg, 0).R[0]
        R1 = sample_channel(cfg, 1).R[0]
        assert not np.allclose(R0, R1)

    def test_empirical_entry_variance_near_one(self):
        # Pooled over 1e5 scalar draws the per-entry variance estimate of
        # the white channel sits within 5% of 1.
        cfg = SystemConfig.make(N=2, K=2, snr_db=20.0, trials=25000, seed=17)
        acc = np.zeros((2, 2))
        for t in range(cfg.trials):
            acc += np.abs(sample_channel(cfg, t).H) ** 2
        var = acc / cfg.trials
        assert np.all(np.abs(var - 1.0) < 0.05), f"entry variances {var.ravel()}"

    def test_empirical_covariance_matches_r(self):
        # Sample covariance over 1e5 correlated draws reproduces R within
        # 2% per entry (all users share R under exp-common).
        cfg = SystemConfig.make(
            N=4, K=8, snr_db=20.0, kind="exp-common", rho=0.9, theta=0.7,
            trials=12500, seed=13,
        )
        acc = np.zeros((4, 4), dtype=complex)
        for t in range(cfg.trials):
            H = sample_channel(cfg, t).H
            acc += H @ H.conj().T
        emp = acc / (cfg.trials * cfg.K)
        R = build_correlation(cfg.profile, 0)
        assert np.max(np.abs(emp - R)) < 0.02
