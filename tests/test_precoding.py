import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoslnr import linalg
from mimoslnr.channel import SystemConfig, eta_from_snr_db, sample_channel
from mimoslnr.oracles import (
    power_control, rzf_precode, sinr_instantaneous, slnr_leave_one_out, slnr_ratio,
)
from mimoslnr.precoding import DegenerateUserError, compute_metrics

rng = np.random.default_rng(777)


def random_channel(N, K):
    return (rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))) / np.sqrt(2.0)


def orthogonal_channel(N, K, gain=2.0):
    # Scaled unit columns: the Gram matrix is diagonal and exact in floats.
    H = np.zeros((N, K), dtype=complex)
    for k in range(K):
        H[k, k] = np.sqrt(gain)
    return H


class TestRzfPrecode:
    def test_scalar(self):
        F = rzf_precode(np.array([[2.0]]), 1.0)
        np.testing.assert_allclose(F, [[0.4]], atol=1e-15)

    def test_orthogonal_columns(self):
        g, beta = 2.0, 0.5
        H = orthogonal_channel(6, 3, gain=g)
        F = rzf_precode(H, beta)
        np.testing.assert_allclose(F, H / (g + beta), atol=1e-14)

    def test_residual_random(self):
        H = random_channel(16, 8)
        beta = 0.08
        F = rzf_precode(H, beta)
        resid = H @ (H.conj().T @ F) + beta * F - H
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(H)

    @pytest.mark.parametrize("N,K", [(64, 32), (16, 15), (12, 12), (8, 12), (1, 3), (3, 1)])
    @pytest.mark.parametrize("eta", [1.0, 0.01])
    def test_matches_n_by_n_solve(self, N, K, eta):
        # The Cholesky N x N solve against numpy's LU on both sides of the
        # push-through identity: (H H* + beta I)^{-1} H == H (H* H + beta I)^{-1}.
        H = random_channel(N, K)
        beta = K * eta
        F = rzf_precode(H, beta)
        Hh = H.conj().T
        ref_n = np.linalg.solve(H @ Hh + beta * np.eye(N), H)
        ref_k = H @ np.linalg.inv(Hh @ H + beta * np.eye(K))
        assert np.linalg.norm(F - ref_n) <= 1e-12 * np.linalg.norm(ref_n)
        assert np.linalg.norm(F - ref_k) <= 1e-12 * np.linalg.norm(ref_k)

    def test_empty_system(self):
        assert rzf_precode(np.zeros((0, 2)), 1.0).shape == (0, 2)

    def test_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            rzf_precode(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        H = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="beta"):
            rzf_precode(H, bad)
        H[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            rzf_precode(H, 1.0)
        with pytest.raises(ValueError, match="finite"):
            slnr_leave_one_out(H, 0.1)

    # A complex shift failed in float() with a TypeError, and a bool passed for 1.
    @pytest.mark.parametrize("beta", [1j, 1.0 + 0j, True, np.True_, np.array([1.0])])
    def test_rejects_a_beta_that_is_not_a_real_number(self, beta):
        H = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="beta"):
            rzf_precode(H, beta)
        with pytest.raises(ValueError, match="beta"):
            linalg.shifted_gram_inverse(H, beta)

    def test_singular_gram_is_linalg_error(self):
        # Two equal users make H* H singular; a vanishing shift cannot save it.
        H = np.zeros((8, 4), dtype=complex)
        H[0, :2] = 2.0
        H[2, 2] = H[3, 3] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            compute_metrics(H, 1e-300)


class TestPowerControl:
    def test_single_user(self):
        F = np.array([[2.0], [0.0]], dtype=complex)
        p = power_control(np.ones_like(F), F)
        np.testing.assert_allclose(p, [0.5])

    def test_equal_norms(self):
        F = np.eye(4, dtype=complex)
        p = power_control(np.ones_like(F), F)
        np.testing.assert_allclose(p, np.full(4, 0.5))

    def test_sum_power_identity(self):
        H = random_channel(12, 6)
        F = rzf_precode(H, 0.3)
        p = power_control(H, F)
        total = float(np.sum(p**2 * np.sum(np.abs(F) ** 2, axis=0)))
        assert abs(total - 1.0) <= 1e-12

    def test_zero_column_raises(self):
        F = np.eye(3, dtype=complex)
        F[:, 1] = 0.0
        with pytest.raises(DegenerateUserError):
            power_control(np.ones_like(F), F)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            power_control(np.ones((3, 2)), np.ones((3, 3)))


class TestSlnr:
    def test_single_user_is_matched_filter_snr(self):
        H = random_channel(8, 1)
        eta = 0.2
        slnr = compute_metrics(H, eta).slnr
        expected = np.linalg.norm(H[:, 0]) ** 2 / eta
        np.testing.assert_allclose(slnr, [expected], rtol=1e-12)

    def test_scalar_unit_case(self):
        assert compute_metrics(np.array([[1.0]]), 1.0).slnr[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n,k,eta", [(8, 4, 0.1), (16, 8, 0.01), (12, 12, 1.0), (8, 12, 0.01), (31, 32, 1e-6)]
    )
    def test_shared_factorization_matches_leave_one_out(self, n, k, eta):
        H = random_channel(n, k)
        fast = compute_metrics(H, eta).slnr
        slow = slnr_leave_one_out(H, eta)
        assert np.max(np.abs(fast - slow) / slow) <= 1e-8

    def test_near_square_k_above_n_at_80_db(self):
        # K > N takes the N x N inverse, and q/(1 - q) amplifies its error as
        # q -> 1, so near square and at high SNR the 1e-8 margin is thinnest.
        # Worst of each size's three channels, against the leave-one-out solve
        # by LU: 3.8e-10 at 63 x 64 and 5.0e-10 at 127 x 128 (by Cholesky, as
        # the oracle once solved: 4.0e-10 and 5.1e-10).
        eta = eta_from_snr_db(80.0)
        for N in (63, 127):
            seeded = np.random.default_rng(5)
            for _ in range(3):
                H = seeded.standard_normal((N, N + 1)) + 1j * seeded.standard_normal((N, N + 1))
                H /= np.sqrt(2.0)
                slow = slnr_leave_one_out(H, eta)
                assert np.max(np.abs(compute_metrics(H, eta).slnr - slow) / slow) <= 1e-8, N

    def test_matches_leakage_ratio_pipeline(self):
        # Quadratic form route against the explicit precode/power/ratio
        # route; the two are tied together by the matrix inversion lemma.
        for _ in range(10):
            N = int(rng.integers(2, 33))
            K = int(rng.integers(1, N + 1))
            eta = float(10 ** (-rng.uniform(0, 25) / 10))
            H = random_channel(N, K)
            quad = compute_metrics(H, eta).slnr
            F = rzf_precode(H, K * eta)
            p = power_control(H, F)
            ratio = slnr_ratio(H, F, p, eta)
            assert np.max(np.abs(ratio - quad) / quad) <= 1e-8


class TestSinr:
    def test_single_user_no_interference(self):
        H = random_channel(6, 1)
        eta = 0.1
        F = rzf_precode(H, eta)
        p = power_control(H, F)
        sinr = sinr_instantaneous(H, F, p, eta)
        expected = np.abs(np.vdot(H[:, 0], F[:, 0]) * p[0]) ** 2 / eta
        np.testing.assert_allclose(sinr, [expected], rtol=1e-12)

    def test_orthogonal_equal_norm_sinr_equals_slnr(self):
        H = orthogonal_channel(8, 4, gain=3.0)
        eta = 0.05
        F = rzf_precode(H, 4 * eta)
        p = power_control(H, F)
        sinr = sinr_instantaneous(H, F, p, eta)
        ratio = slnr_ratio(H, F, p, eta)
        # Cross terms vanish exactly, so the two ratios are the same floats.
        assert np.array_equal(sinr, ratio)
        quad = compute_metrics(H, eta).slnr
        np.testing.assert_allclose(sinr, quad, rtol=1e-10)

    def test_cross_term_reciprocity(self):
        # |h_k* f_i|^2 == |h_i* f_k|^2: both collapse to the same resolvent
        # quadratic form.
        H = random_channel(16, 8)
        F = rzf_precode(H, 8 * 0.01)
        G2 = np.abs(H.conj().T @ F) ** 2
        off = ~np.eye(8, dtype=bool)
        assert np.max(np.abs(G2 - G2.T)[off] / G2[off]) <= 1e-10

    def test_sinr_tracks_slnr_at_scale(self):
        # N=128, K=64 at 20 dB: per-user SINR and SLNR agree to a median
        # relative gap far below the 10% concentration target.
        cfg = SystemConfig.make(N=128, K=64, snr_db=20.0, trials=100, seed=21)
        devs = []
        for t in range(cfg.trials):
            m = compute_metrics(sample_channel(cfg, t).H, cfg.eta)
            devs.append(np.abs(m.sinr - m.slnr) / m.slnr)
        assert float(np.median(np.concatenate(devs))) < 0.1


class TestPowerConcentration:
    def test_spread_shrinks_with_n(self):
        spreads = {}
        for N in (64, 256):
            cfg = SystemConfig.make(N=N, K=N // 2, snr_db=10.0, trials=20, seed=7)
            pool = []
            for t in range(cfg.trials):
                H = sample_channel(cfg, t).H
                pool.append(power_control(H, rzf_precode(H, cfg.K * cfg.eta)) ** 2)
            pool = np.concatenate(pool)
            spreads[N] = float(pool.max() / pool.min())
        assert spreads[256] < spreads[64]

    def test_spread_below_recorded_target(self):
        """Pooled max/min spread of p_k^2 at N=256, alpha=1/2, 10 dB.

        The recorded target is a spread below 1.2 over 50 trials. Measured
        behavior: the pooled spread is 1.62 (per-trial median 1.39, and
        still 2.31 at N=64), i.e. the spread does contract toward 1 with
        growing N but has not reached 1.2 at N=256. The target is kept as
        recorded, so this check fails; see "Known red checks" in README.
        """
        cfg = SystemConfig.make(N=256, K=128, snr_db=10.0, trials=50, seed=7)
        pool = []
        for t in range(cfg.trials):
            H = sample_channel(cfg, t).H
            pool.append(power_control(H, rzf_precode(H, cfg.K * cfg.eta)) ** 2)
        pool = np.concatenate(pool)
        spread = float(pool.max() / pool.min())
        assert spread < 1.2, f"pooled p^2 spread {spread:.4f} is not below 1.2"


class TestMetrics:
    def test_all_entries_positive_and_finite(self):
        cfg = SystemConfig.make(N=16, K=8, snr_db=15.0, trials=3, seed=5)
        for t in range(cfg.trials):
            m = compute_metrics(sample_channel(cfg, t).H, cfg.eta)
            for arr in (m.slnr, m.sinr, m.power_sq):
                assert np.all(np.isfinite(arr)) and np.all(arr > 0)

    def test_equal_per_user_power_share(self):
        H = random_channel(12, 6)
        F = rzf_precode(H, 6 * 0.1)
        p = power_control(H, F)
        shares = p**2 * np.sum(np.abs(F) ** 2, axis=0)
        np.testing.assert_allclose(shares, np.full(6, 1.0 / 6), rtol=1e-9)

    def test_default_beta(self):
        # compute_metrics regularizes at beta = K * eta. It takes p^2 from the
        # K x K resolvent, not from the precoder, so the two agree to rounding;
        # a wrong beta would be off by O(1).
        H = random_channel(8, 4)
        m = compute_metrics(H, 0.5)
        ref = power_control(H, rzf_precode(H, 4 * 0.5)) ** 2
        np.testing.assert_allclose(m.power_sq, ref, rtol=1e-12)

    def test_one_factorization_per_realization(self, monkeypatch):
        calls = []
        zpotrf = linalg.zpotrf

        def counting_zpotrf(*args, **kwargs):
            calls.append(args)
            return zpotrf(*args, **kwargs)

        monkeypatch.setattr(linalg, "zpotrf", counting_zpotrf)
        # K < N and K = N take the K x K route, K > N the N x N one.
        for N, K in [(16, 8), (8, 8), (8, 12)]:
            calls.clear()
            compute_metrics(random_channel(N, K), 0.01)
            assert len(calls) == 1, (N, K)

    @pytest.mark.parametrize(
        "N,K", [(1, 1), (8, 1), (16, 8), (12, 12), (8, 12), (64, 32), (16, 15), (3, 1), (1, 3)]
    )
    @pytest.mark.parametrize("snr_db", [-100.0, -30.0, 0.0, 20.0, 40.0])
    def test_matches_explicit_precoder_route(self, N, K, snr_db):
        # The metrics come from the inverse of the smaller shifted Gram (for
        # K <= N the K x K resolvent alone); the explicit route forms F by one
        # N x N solve, its powers and both ratios from F.
        H = random_channel(N, K)
        eta = eta_from_snr_db(snr_db)
        m = compute_metrics(H, eta)
        F = rzf_precode(H, K * eta)
        p = power_control(H, F)
        np.testing.assert_allclose(m.power_sq, p**2, rtol=1e-10)
        np.testing.assert_allclose(m.sinr, sinr_instantaneous(H, F, p, eta), rtol=1e-10)
        np.testing.assert_allclose(m.slnr, slnr_ratio(H, F, p, eta), rtol=1e-8)

    @pytest.mark.parametrize("N,K", [(16, 8), (12, 12)])
    def test_low_snr_slnr_matches_leave_one_out(self, N, K):
        # At -100 dB, q_k ~ ||h_k||^2 / (K eta) ~ 1e-10: taken as
        # 1 - K eta [W^{-1}]_kk it would cancel to a relative error near 1e-6.
        H = random_channel(N, K)
        eta = eta_from_snr_db(-100.0)
        slow = slnr_leave_one_out(H, eta)
        assert np.max(np.abs(compute_metrics(H, eta).slnr - slow) / slow) <= 1e-8

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4)], ids=["4x2", "2x4"])
    def test_overflowing_gram_is_linalg_error(self, shape):
        # Finite entries whose Gram overflows: the metrics and the oracles
        # were all NaN, or 0, with an overflow warning.
        H = np.full(shape, 1e160 + 0j)
        entries = (compute_metrics, slnr_leave_one_out, lambda H, eta: rzf_precode(H, 2 * eta))
        for entry in entries:
            with pytest.raises(np.linalg.LinAlgError, match="shifted Gram matrix is not finite"):
                entry(H, 0.1)

    @pytest.mark.parametrize("N,K", [(8, 4), (64, 32), (5, 1)])
    @pytest.mark.parametrize("snr_db", [100.0, 200.0, 300.0, 400.0])
    def test_finite_at_extreme_snr(self, N, K, snr_db):
        # The K x K Gram of a sampled channel has full rank, so a shift
        # that vanishes against it still leaves it positive definite.
        config = SystemConfig.make(N=N, K=K, snr_db=snr_db, seed=8)
        m = compute_metrics(sample_channel(config, 0).H, config.eta)
        for arr in (m.slnr, m.sinr, m.power_sq):
            assert np.all(np.isfinite(arr)) and np.all(arr > 0)

    @settings(max_examples=50, deadline=None, database=None)
    @given(
        N=st.integers(1, 32),
        snr_db=st.floats(-300.0, 300.0),
        rho=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_finite_or_linalg_error(self, N, snr_db, rho, seed, data):
        # Extreme SNR and correlation either stay finite or fail with a typed
        # LinAlgError.
        K = data.draw(st.integers(1, N), label="K")
        config = SystemConfig.make(N=N, K=K, snr_db=snr_db, kind="exp-random", rho=rho, seed=seed)
        H = sample_channel(config, 0).H
        try:
            m = compute_metrics(H, config.eta)
        except np.linalg.LinAlgError:
            return
        for arr in (m.slnr, m.sinr, m.power_sq):
            assert np.all(np.isfinite(arr))
