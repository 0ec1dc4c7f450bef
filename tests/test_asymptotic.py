import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoslnr import asymptotic, linalg
from mimoslnr.asymptotic import (
    DEFAULT_TOL,
    EPS,
    FixedPointError,
    _FLOOR_ULPS,
    _exp_root,
    _phase_table,
    _scalar_excess,
    _scalar_fixed_point,
    _solve_toeplitz,
    _toeplitz_inverse_sums,
    gamma_common_r,
    gamma_exp_common,
    gamma_exp_even,
    gamma_uncorrelated,
    solve_exponential_fixed_point,
)
from mimoslnr.channel import (
    SystemConfig, build_correlation, sample_channel, trial_rng, user_phases
)
from mimoslnr.linalg import EigConvergenceError
from mimoslnr.oracles import check_common_r_bound, even_mean_correlation, solve_fixed_point
from mimoslnr.precoding import compute_metrics

rng = np.random.default_rng(99)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0  # root of g^2 + g - 1 = 0


def identity_profile(K, N):
    return [np.eye(N, dtype=complex)] * K


def exponential_eigenvalues(N, rho):
    # A complex matrix, the oracle's dtype: numpy's real eigh rounds differently.
    d = np.subtract.outer(np.arange(N), np.arange(N))
    return np.linalg.eigh((rho ** np.abs(d).astype(float)).astype(complex))[0]


class TestSolveFixedPoint:
    def test_square_identity_unit_eta(self):
        sol = solve_fixed_point(identity_profile(8, 8), eta=1.0)
        np.testing.assert_allclose(sol.gamma, GOLDEN, rtol=1e-10)
        assert sol.residual <= 1e-12 * (1.0 + GOLDEN)

    @pytest.mark.parametrize("x,snr_db", [(1.0, -10.0), (2.0, 0.0), (3.0, 20.0), (8.0, 35.0)])
    def test_matches_closed_form(self, x, snr_db):
        eta = 10.0 ** (-snr_db / 10.0)
        K = 6
        sol = solve_fixed_point(identity_profile(K, int(x * K)), eta)
        ref = gamma_uncorrelated(x, eta)
        assert np.max(np.abs(sol.gamma - ref)) <= 1e-10 * ref

    def test_even_theta_profile_matches_uncorrelated(self):
        # Evenly spaced phases make the user-averaged correlation the
        # identity, so every user lands on the uncorrelated value.
        config = SystemConfig.make(32, 32, 0.0, kind="exp-even", rho=0.9)
        R = [build_correlation(32, 0.9, t) for t in user_phases(config)]
        sol = solve_fixed_point(R, eta=0.01)
        ref = gamma_uncorrelated(1.0, 0.01)
        assert np.max(np.abs(sol.gamma - ref)) <= 1e-8 * ref

    def test_nonconvergence_diagnostic(self, monkeypatch):
        monkeypatch.setattr(asymptotic, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(FixedPointError) as excinfo:
            solve_fixed_point(identity_profile(4, 4), eta=0.01)
        assert excinfo.value.iterations == 3
        assert excinfo.value.residual > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stops_at_first_non_finite_iterate(self, bad):
        R = np.array(identity_profile(3, 4))
        R[1, 2, 2] = bad
        with pytest.raises(FixedPointError, match="not finite") as excinfo:
            solve_fixed_point(R, eta=0.1)
        assert excinfo.value.iterations == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_fixed_point(identity_profile(4, 4), eta=0.0)
        with pytest.raises(ValueError):
            solve_fixed_point(np.zeros((4, 3, 2)), eta=1.0)

    def test_monte_carlo_concentration_improves_with_n(self):
        # Median absolute relative deviation of the sampled SLNR from the
        # deterministic value shrinks as N grows at fixed K/N.
        medians = []
        for N in (16, 64, 256):
            cfg = SystemConfig.make(N=N, K=N // 2, snr_db=20.0, trials=50, seed=3)
            gamma = gamma_uncorrelated(2.0, cfg.eta)
            devs = []
            for t in range(cfg.trials):
                slnr = compute_metrics(sample_channel(cfg, t).H, cfg.eta).slnr
                devs.append(np.abs(slnr - gamma) / gamma)
            medians.append(float(np.median(np.concatenate(devs))))
        assert medians[0] > medians[1] > medians[2], f"medians {medians}"


class TestGammaUncorrelated:
    def test_golden_ratio_case(self):
        assert gamma_uncorrelated(1.0, 1.0) == pytest.approx(GOLDEN, abs=1e-15)

    def test_noise_dominated_limit(self):
        # For eta >> x the value collapses to x/eta.
        assert gamma_uncorrelated(2.0, 1e9) == pytest.approx(2e-9, rel=1e-6)

    def test_fixed_point_residual_on_grid(self):
        xs = np.linspace(1.0, 10.0, 25)
        etas = 10.0 ** (-np.linspace(-10.0, 40.0, 25) / 10.0)
        for x in xs:
            g = gamma_uncorrelated(x, etas)
            resid = np.abs(g - x / (1.0 / (1.0 + g) + etas)) / g
            assert float(resid.max()) <= 1e-12

    def test_monotone_in_x_and_eta(self):
        etas = 10.0 ** (-np.linspace(-10.0, 40.0, 40) / 10.0)
        xs = np.linspace(1.0, 10.0, 40)
        for eta in etas:
            g = gamma_uncorrelated(xs, eta)
            assert np.all(np.diff(g) > 0)
        for x in xs:
            g = gamma_uncorrelated(x, etas[np.argsort(etas)])
            assert np.all(np.diff(g) < 0)

    def test_vectorized_and_scalar_agree(self):
        # Python floats take plain float arithmetic, arrays numpy: the same
        # IEEE operations, so the same bits (repr tells -0.0 apart), on both
        # sides of the conjugate-pair switch at x = 1 + eta. Infinite and NaN
        # x are rejected on both paths (test_validation).
        xs = np.array([-0.0, 0.0, 0.5, 1.0, 2.5, 7.0, 1e300])
        for eta in (1e-12, 0.05, 3.0, 1e6):
            with np.errstate(all="ignore"):
                vec = gamma_uncorrelated(xs, eta)
            scalar = [gamma_uncorrelated(float(x), eta) for x in xs]
            assert all(type(g) is float for g in scalar)
            assert list(map(repr, scalar)) == list(map(repr, vec.tolist()))

    @pytest.mark.parametrize("eta", [1e-20, 1e-30])
    def test_discarded_branch_warns_nothing(self, eta):
        # Where b <= 0 the discarded form 2x / (b + disc) divides by an exact
        # 0 at high SNR; it printed numpy's divide-by-zero warning.
        xs = np.array([1.0, 1.2, 1.4, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = gamma_uncorrelated(xs, eta)
        assert list(map(repr, vec.tolist())) == [repr(gamma_uncorrelated(float(x), eta)) for x in xs]

    def test_validation(self):
        # NaN and inf came back as nan and inf, and True was taken for x = 1.
        for x in (-1.0, np.nan, np.inf, True, np.True_, np.array([1.0, np.nan]), [True]):
            with pytest.raises(ValueError, match="x must"):
                gamma_uncorrelated(x, 0.1)
        with pytest.raises(ValueError):
            gamma_uncorrelated(2.0, 0.0)


class TestGammaCommonR:
    def test_all_ones_matches_uncorrelated(self):
        g = gamma_common_r(np.ones(24), K=12, eta=0.3)
        assert g == pytest.approx(gamma_uncorrelated(2.0, 0.3), rel=1e-11)

    def test_correlated_strictly_below_uncorrelated(self):
        lam = exponential_eigenvalues(64, 0.9)
        g = gamma_common_r(lam, K=48, eta=0.01)
        assert g < gamma_uncorrelated(64 / 48, 0.01)

    def test_zero_eigenvalue_contributes_nothing(self):
        # lam = (2, 0): the zero mode drops out and the fixed point solves
        # gamma = 1 / (K/(1+gamma) + K*eta/2).
        K, eta = 4, 0.1
        g = gamma_common_r(np.array([2.0, 0.0]), K=K, eta=eta)
        assert g == pytest.approx(1.0 / (K / (1.0 + g) + K * eta / 2.0), rel=1e-11)

    @pytest.mark.parametrize("N", [1, 16, 64])
    @pytest.mark.parametrize("snr_db", [40.0, 50.0, 60.0, 70.0, 80.0])
    def test_full_load_high_snr_matches_closed_form(self, N, snr_db):
        # At x = 1 the map's contraction factor tends to 1 with the SNR:
        # plain iteration stopped 4.9e-11 short at 40 dB and spun out its
        # 10 000 iterations at 60 dB.
        eta = 10.0 ** (-snr_db / 10.0)
        ref = gamma_uncorrelated(1.0, eta)
        assert abs(gamma_common_r(np.ones(N), N, eta) - ref) <= 1e-10 * ref

    def test_iteration_cap_is_fixed_point_error(self, monkeypatch):
        monkeypatch.setattr(asymptotic, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(FixedPointError, match="within 1 iterations") as excinfo:
            gamma_common_r(exponential_eigenvalues(16, 0.5), K=8, eta=0.01)
        assert excinfo.value.iterations == 1

    def test_bracket_overflow_is_fixed_point_error(self):
        # The root lies near N/(K eta), which overflows here.
        with pytest.raises(FixedPointError, match="overflows"):
            gamma_common_r(np.ones(64), 16, 1e-308)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_common_r(np.array([2.0, -0.5]), K=2, eta=0.1)
        with pytest.raises(ValueError):
            gamma_common_r(np.array([1.0, 1.5]), K=2, eta=0.1)  # trace off


def assert_certified(root, values, counts, K, eta, tol):
    """``root`` is a :class:`asymptotic._Root` of the scalar excess that keeps its promise.

    Either its bracket is at most ``tol + max(tol, 4 eps) * gamma`` wide, with
    the excess not above its rounding floor at ``lo`` and not below it at
    ``hi``, or the bracket is the point itself, where the excess is within
    that floor.
    """
    excess = _scalar_excess(values, counts, K, eta)
    gamma = root.root
    assert math.isfinite(gamma) and gamma >= 0.0
    assert root.lo <= gamma <= root.hi
    if root.lo < root.hi:
        assert root.hi - root.lo <= tol + max(tol, 4.0 * EPS) * gamma
        # The bracket starts as [0, sum(lam) / (K eta)], whose signs hold
        # by the map's bounds; only the ends that were evaluated are checked.
        ends = [(x, sign) for x, sign in ((root.lo, 1.0), (root.hi, -1.0)) if x != 0.0]
    else:
        ends = [(gamma, 0.0)]
    for x, sign in ends:
        f, _, scale = excess(x)
        floor = _FLOOR_ULPS * EPS * scale
        assert sign * f > 0.0 or abs(f) <= floor, (x, f, floor)


def expand(values, counts):
    return np.repeat(values, counts.astype(int))


class TestBrentPort:
    """Certificates of the scalar root search at full load and high SNR.

    The cases, and the class's name, come from the checks of the Brent
    search that safeguarded Newton replaced; each case keeps its test ID.
    """

    @pytest.mark.parametrize("snr_db", [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0])
    @pytest.mark.parametrize("N,rho", [(1, 0.0), (16, 0.0), (64, 0.0), (64, 0.5), (64, 0.95)])
    def test_gamma_common_r_excess_at_full_load(self, N, rho, snr_db):
        lam = np.clip(exponential_eigenvalues(N, rho), 0.0, None)
        eta = 10.0 ** (-snr_db / 10.0)
        root = _scalar_fixed_point(lam, np.ones(N), N, eta, DEFAULT_TOL)
        assert_certified(root, lam, np.ones(N), N, eta, DEFAULT_TOL)
        assert gamma_common_r(lam, N, eta) == root.root
        # scipy's Brent on the same excess and bracket stops within the same
        # tolerance of the root, so the two are at most twice it apart.
        excess = _scalar_excess(lam, np.ones(N), N, eta)
        ref = scipy.optimize.brentq(
            lambda g: excess(g)[0], 0.0, lam.sum() / (N * eta), xtol=DEFAULT_TOL, rtol=DEFAULT_TOL
        )
        assert abs(root.root - ref) <= 2.0 * DEFAULT_TOL * (1.0 + ref)

    def test_gamma_common_r_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(asymptotic, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(FixedPointError, match="within 3 iterations") as excinfo:
            gamma_common_r(exponential_eigenvalues(16, 0.5), K=8, eta=0.01)
        assert excinfo.value.iterations == 3
        assert excinfo.value.residual > 0.0


    def test_non_finite_value_is_fixed_point_error(self):
        with pytest.raises(FixedPointError, match="met nan") as excinfo:
            asymptotic._newton_root(
                lambda x: (math.nan, -1.0, 1.0), 0.0, 1.0, 0.5, 1e-12, 1e-12, 10
            )
        assert excinfo.value.iterations == 1


# Spectra with multiplicities: up to 8 distinct values, some of them 0,
# each taken 1 to 32 times, scaled to trace N.
SPECTRA = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), st.integers(1, 32)),
    min_size=1, max_size=8,
).filter(lambda pairs: any(v > 0.0 for v, _ in pairs))
SNR_DB = st.floats(-300.0, 300.0)
TOL = st.floats(-14.0, -2.0).map(lambda e: 10.0 ** e)


def jensen_bound(N, K, eta, tol, gamma):
    return gamma_uncorrelated(N / K, eta) + tol + max(tol, 4.0 * EPS) * gamma


class TestScalarRootProperties:
    """The scalar route over random spectra, loads, SNRs and tolerances."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=SPECTRA, load=st.floats(0.0, 1.0), snr_db=SNR_DB, tol=TOL)
    def test_common_r_certificate_and_jensen_bound(self, pairs, load, snr_db, tol):
        values = np.array([v for v, _ in pairs])
        counts = np.array([float(c) for _, c in pairs])
        N = int(counts.sum())
        values *= N / float(counts @ values)
        K = 1 + int(load * (4 * N - 1))
        eta = 10.0 ** (-snr_db / 10.0)
        root = _scalar_fixed_point(values, counts, K, eta, tol)
        assert_certified(root, values, counts, K, eta, tol)
        assert root.root <= jensen_bound(N, K, eta, tol, root.root)
        gamma = gamma_common_r(expand(values, counts), K, eta, tol=tol)
        assert math.isfinite(gamma) and 0.0 <= gamma <= jensen_bound(N, K, eta, tol, gamma)

    @settings(max_examples=200, deadline=None)
    @given(
        N=st.integers(1, 128), load=st.floats(0.0, 1.0), rho=st.floats(0.0, 0.9999),
        snr_db=SNR_DB, tol=TOL, even=st.booleans(),
    )
    def test_exponential_routes(self, N, load, rho, snr_db, tol, even):
        K = 1 + int(load * (4 * N - 1))
        eta = 10.0 ** (-snr_db / 10.0)
        period = K if even else 1
        root = _exp_root(N, K, rho, eta, tol, period)
        values, counts = asymptotic._even_mean_eigenvalues(N, period, rho)
        assert_certified(root, values, counts, K, eta, tol)
        assert root.root <= jensen_bound(N, K, eta, tol, root.root)
        route = gamma_exp_even if even else gamma_exp_common
        assert route(N, K, rho, eta, tol=tol) == root.root


# N in {1, 2, 7, 32}, K from 1 to above N, rho in {0, 0.3, 0.9}, 0/20/40 dB.
STRUCTURED_SIZES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4)] + [
    (7, k) for k in range(1, 10)
] + [(32, k) for k in (1, 5, 16, 31, 32, 33, 40)]
STRUCTURED_CASES = [
    (N, K, rho, snr_db)
    for N, K in STRUCTURED_SIZES
    for rho in (0.0, 0.3, 0.9)
    for snr_db in (0.0, 20.0, 40.0)
]


def case_id(case):
    return "N{}-K{}-rho{}-{}dB".format(*case)


def picard_shortfall(sol, lam, K, eta):
    """How far below the exp-even root the dense solver may have stopped.

    The dense solver is Anderson-accelerated but stops on a plain (Picard)
    step, or at the rounding floor on its best iterate. Every user's gamma
    is equal here, so that step is one of the scalar map ``T`` over the
    eigenvalues ``lam`` of the user average. ``T`` is increasing and
    concave, so with ``q = T'`` at the point that step started from the gap
    is at most ``residual * q / (1 - q)``; at full load and 40 dB, ``q`` is
    about 0.98.
    """
    u = 1.0 + np.min(sol.gamma) - sol.residual
    q = np.sum((lam / (lam + eta * u)) ** 2) / K
    return sol.residual * q / (1.0 - q)


class TestStructuredRoutes:
    """The exp-even and Toeplitz routes against the dense solver on
    ``build_correlation`` matrices, user by user."""

    @pytest.mark.parametrize("N,K,rho,snr_db", STRUCTURED_CASES, ids=map(case_id, STRUCTURED_CASES))
    def test_exp_even_matches_dense(self, N, K, rho, snr_db):
        eta = 10.0 ** (-snr_db / 10.0)
        config = SystemConfig.make(N, K, 0.0, kind="exp-even", rho=rho)
        R = [build_correlation(N, rho, t) for t in user_phases(config)]
        dense = solve_fixed_point(R, eta, tol=1e-13)
        gamma = gamma_exp_even(N, K, rho, eta)
        lam = np.linalg.eigvalsh(np.mean(R, axis=0))
        gap = picard_shortfall(dense, lam, K, eta)
        assert np.max(np.abs(dense.gamma - gamma)) <= 1e-12 * gamma + gap

    @pytest.mark.parametrize("N,K,rho,snr_db", STRUCTURED_CASES, ids=map(case_id, STRUCTURED_CASES))
    def test_toeplitz_matches_dense(self, N, K, rho, snr_db):
        eta = 10.0 ** (-snr_db / 10.0)
        seed = N * 1000 + K
        config = SystemConfig.make(N, K, 0.0, kind="exp-random", rho=rho)
        theta = user_phases(config, trial_rng(seed, 0))
        R = [build_correlation(N, rho, t) for t in theta]
        # Both routes are Anderson-accelerated on maps that agree up to
        # rounding, so they need not take the same steps or stop on the same
        # one: at the default tol up to 8.5e-13 apart over these cases.
        dense = solve_fixed_point(R, eta, tol=1e-13).gamma
        gamma = solve_exponential_fixed_point(N, rho, theta, eta, tol=1e-13).gamma
        assert np.max(np.abs(gamma - dense) / dense) <= 1e-12

    @pytest.mark.parametrize("N,K", [(1, 1), (7, 3), (7, 7), (7, 9), (32, 5), (32, 31)])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9])
    def test_even_mean_correlation_matches_dense_sum(self, N, K, rho):
        config = SystemConfig.make(N, K, 0.0, kind="exp-even", rho=rho)
        dense = np.mean([build_correlation(N, rho, t) for t in user_phases(config)], axis=0)
        closed = even_mean_correlation(N, K, rho)
        np.testing.assert_allclose(closed, dense, rtol=0.0, atol=1e-14)
        assert np.trace(closed) == N
        if K >= N:
            assert np.array_equal(closed, np.eye(N))

    def test_toeplitz_even_phases_give_one_value(self):
        # Evenly spaced phases on the general route reproduce the scalar one.
        N, K, rho, eta = 32, 12, 0.6, 0.01
        theta = 2.0 * np.pi * np.arange(K) / K
        sol = solve_exponential_fixed_point(N, rho, theta, eta)
        gamma = gamma_exp_even(N, K, rho, eta)
        assert np.max(np.abs(sol.gamma - gamma)) <= 1e-11 * gamma

    def test_toeplitz_indefinite_resolvent_is_linalg_error(self):
        # rho one ulp below 1 with one user leaves M numerically singular at
        # gamma = 0. (The default start, the closed form, keeps M definite.)
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            _solve_toeplitz(_phase_table(64, np.zeros(1)), 1.0 - 1e-16, 1e-30, DEFAULT_TOL,
                            np.zeros(1))


# The scalar routes take their eigenvalues from the KMS blocks' tridiagonal
# inverses (LAPACK's dpteqr); the oracle is the dense complex route they
# replaced, numpy's eigh on matrices built user by user. Set before the
# comparison was run: a relative 1e-12 (the largest change measured over N
# in {8, 16, 64, 128}, four loads, three SNRs and 12 rho was 5.4e-14).
EIG_ROUTE_RTOL = 1e-12


def dense_common_gamma(R, K, eta):
    return gamma_common_r(np.linalg.eigh(R)[0], K, eta)


class TestRealEigenvalueRoute:
    @pytest.mark.parametrize("N", [1, 2, 8, 64, 128])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
    def test_exp_even_matches_dense_route(self, N, rho):
        # K on both sides of N; for K >= N the user average is the identity.
        for K in sorted({1, max(1, N // 3), N, N + 3}):
            config = SystemConfig.make(N, K, 0.0, kind="exp-even", rho=rho)
            mean = np.zeros((N, N), dtype=complex)
            for t in user_phases(config):
                mean += build_correlation(N, rho, t)
            mean /= K
            for snr_db in (-10.0, 20.0, 60.0):
                eta = 10.0 ** (-snr_db / 10.0)
                ref = dense_common_gamma(mean, K, eta)
                assert abs(gamma_exp_even(N, K, rho, eta) - ref) <= EIG_ROUTE_RTOL * ref

    @pytest.mark.parametrize("N", [1, 2, 8, 64, 128])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
    def test_exp_common_matches_dense_route_at_any_phase(self, N, rho):
        # The phase drops out of the eigenvalues: R = D R_0 D* with D unitary.
        for theta in (0.0, 0.7, -2.5):
            R = build_correlation(N, rho, theta)
            for K in sorted({1, max(1, N // 3), N + 3}):
                for snr_db in (-10.0, 20.0, 60.0):
                    eta = 10.0 ** (-snr_db / 10.0)
                    ref = dense_common_gamma(R, K, eta)
                    assert abs(gamma_exp_common(N, K, rho, eta) - ref) <= EIG_ROUTE_RTOL * ref

    @pytest.mark.parametrize("route", [gamma_exp_even, gamma_exp_common])
    def test_eigensolver_failure_is_eig_convergence_error(self, monkeypatch, route):
        # info > n: the bidiagonal QR inside dpteqr did not converge.
        def fail(d, e, z, **kwargs):
            return d, e, z, d.size + 1

        monkeypatch.setattr(linalg, "dpteqr", fail)
        with pytest.raises(EigConvergenceError, match="64x64") as excinfo:
            route(64, 48, 0.5, 0.01)
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        assert "dpteqr info" in str(excinfo.value.__cause__)


# Tolerances of the structured kernels' tests, set before they were run.
# The KMS eigenvalues against eigvalsh on the dense matrix: 1e-12 times the
# spectral norm, since eigvalsh's own error is a few eps times the norm.
KMS_ATOL = 1e-12
# The dgelsd fit against np.linalg.lstsq: 1e-12 times the largest coefficient.
FIT_RTOL = 1e-12


def _cases_n_k():
    for N in (1, 2, 7, 32, 64, 128):
        for K in sorted({k for k in (1, 3, N // 3, N // 2, N - 1, N, N + 3) if k >= 1}):
            yield N, K


class TestPhaseTable:
    # The table is exponentiated in place from a complex exponent. Formed as
    # (1j * theta_k) * d instead, that exponent has -0.0 where the reference
    # has +0.0 (at d = 0 for a negative phase), and so does the table; float64
    # equality forgives a zero's sign, so the bits are compared as integers.
    @pytest.mark.parametrize("theta", [
        [0.0, -0.0, 1.0, -1.0, 2.0 * np.pi, -2.0 * np.pi, 5e-324, -5e-324],
        [1e6, -1e6, 1e15, -1e15, 1e300, -1e300],
        np.random.default_rng(3).uniform(-50.0, 50.0, 40),
    ], ids=["signs-and-zeros", "large", "random"])
    def test_bits_of_the_outer_product_form(self, theta):
        theta = np.asarray(theta, dtype=float)
        ref = np.exp(1j * np.outer(theta, np.arange(33)))
        got = _phase_table(33, theta)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got.view(np.float64).view(np.int64),
                              ref.view(np.float64).view(np.int64))


class TestStructuredKernels:
    @pytest.mark.parametrize("N,K", list(_cases_n_k()))
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.99])
    def test_block_eigenvalues_match_dense(self, N, K, rho):
        got = np.sort(expand(*asymptotic._even_mean_eigenvalues(N, K, rho)))
        ref = np.linalg.eigvalsh(even_mean_correlation(N, K, rho))
        assert got.shape == ref.shape
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - ref)) <= KMS_ATOL * max(1.0, ref.max())

    @pytest.mark.parametrize("N", [2, 64, 256])
    def test_kms_eigenvalues_one_ulp_below_one(self, N):
        # The dense matrix is all but the rank-one all-ones matrix there, and
        # eigvalsh rounds its tiny eigenvalues below zero; the tridiagonal
        # inverse keeps every one positive and the trace at N.
        lam = linalg._kms_eigenvalues(N, np.nextafter(1.0, 0.0))
        assert lam.min() > 0.0
        assert abs(lam.sum() - N) <= 1e-12 * N

    @pytest.mark.parametrize("rows,columns", [(48, 1), (48, 3), (48, 5), (7, 5), (3, 5), (1, 2)])
    def test_least_squares_matches_lstsq(self, rows, columns):
        fit = linalg._least_squares(rows, asymptotic.HISTORY)
        gen = np.random.default_rng([rows, columns])
        for scale in (1.0, 1e-8, 1e8):
            A = scale * gen.standard_normal((rows, columns))
            b = gen.standard_normal(rows)
            ref = np.linalg.lstsq(A, b, rcond=None)[0]
            np.testing.assert_allclose(fit(A, b), ref, rtol=0.0, atol=FIT_RTOL * np.abs(ref).max())

    def test_least_squares_rank_deficient_history(self):
        # Two equal residual differences: the minimum-norm solution splits
        # their weight evenly, as np.linalg.lstsq does.
        gen = np.random.default_rng(7)
        A = gen.standard_normal((48, 4))
        A[:, 3] = A[:, 1]
        b = gen.standard_normal(48)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        got = linalg._least_squares(48, asymptotic.HISTORY)(A, b)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=FIT_RTOL * np.abs(ref).max())
        assert got[1] == pytest.approx(got[3], rel=1e-12)

    def test_least_squares_keeps_nearly_dependent_columns(self):
        # Columns 1e-8 apart stay two columns under lstsq's cutoff
        # eps * max(n, m); a looser one would drop the small singular value
        # and return another solution. The conditioning (about 1e8) bounds
        # the agreement between LAPACK builds, so the bar here is 1e-6.
        gen = np.random.default_rng(8)
        A = gen.standard_normal((48, 3))
        A[:, 2] = A[:, 0] + 1e-8 * gen.standard_normal(48)
        b = gen.standard_normal(48)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        got = linalg._least_squares(48, asymptotic.HISTORY)(A, b)
        np.testing.assert_allclose(got, ref, rtol=1e-6)


def picard_oracle(R, eta, tol=1e-13, max_iter=200000):
    """Plain Picard iteration on the dense ``R_k`` from zero, the reference for both solvers.

    Stops once the step is within ``tol * (1 + max gamma)``. The map is
    increasing and concave, so the iterates rise to the fixed point and the
    ratio of successive steps falls. With ``q`` the ratio at the first step
    within ``sqrt(eps) * (1 + max gamma)`` (late enough for the Jacobian,
    early enough to be clear of rounding), the run stopped at most
    ``step * q / (1 - q)`` short, which is returned as the second value.
    """
    Rs = np.asarray(R, dtype=complex)
    K, N, _ = Rs.shape
    shift = K * eta * np.eye(N)
    gamma, previous, q = np.zeros(K), np.inf, None
    for _ in range(max_iter):
        M = np.einsum("k,kij->ij", 1.0 / (1.0 + gamma), Rs) + shift
        new = np.einsum("kij,ji->k", Rs, np.linalg.inv(M)).real
        step = float(np.abs(new - gamma).max())
        gamma = new
        scale = 1.0 + gamma.max()
        if q is None and step <= np.sqrt(np.finfo(float).eps) * scale:
            q = step / previous
        if step <= tol * scale:
            return gamma, step * q / (1.0 - q)
        previous = step
    raise AssertionError(f"Picard oracle did not converge in {max_iter} steps")


def exp_random_case(N, K, rho, seed):
    """The exp-random users' matrices and the phases they are built from."""
    config = SystemConfig.make(N, K, 0.0, kind="exp-random", rho=rho)
    theta = user_phases(config, trial_rng(seed, 0))
    return [build_correlation(N, rho, t) for t in theta], theta


class TestAcceleratedSolvers:
    """Anderson-accelerated dense and Toeplitz routes against plain Picard."""

    @pytest.mark.parametrize("N,K,rho,snr_db", STRUCTURED_CASES, ids=map(case_id, STRUCTURED_CASES))
    def test_both_routes_match_picard_oracle(self, N, K, rho, snr_db):
        eta = 10.0 ** (-snr_db / 10.0)
        R, theta = exp_random_case(N, K, rho, seed=N * 1000 + K)
        oracle, shortfall = picard_oracle(R, eta)
        slack = 1e-12 * oracle + shortfall
        dense = solve_fixed_point(R, eta, tol=1e-13)
        toeplitz = solve_exponential_fixed_point(N, rho, theta, eta, tol=1e-13)
        for sol in (dense, toeplitz):
            assert np.all(np.abs(sol.gamma - oracle) <= slack)
            assert sol.iterations < 200

    @pytest.mark.parametrize("N", [1, 16, 64])
    @pytest.mark.parametrize("snr_db", [40.0, 50.0, 60.0, 70.0, 80.0])
    def test_full_load_high_snr_matches_closed_form(self, N, snr_db):
        # At N = K the Picard map's contraction factor is about
        # 1 - 2 sqrt(eta): plain iteration took 1221 steps at 40 dB and
        # did not converge in 10 000 at 60 dB.
        eta = 10.0 ** (-snr_db / 10.0)
        ref = gamma_uncorrelated(1.0, eta)
        for sol in (
            solve_fixed_point(identity_profile(N, N), eta),
            solve_exponential_fixed_point(N, 0.0, np.zeros(N), eta),
        ):
            assert np.max(np.abs(sol.gamma - ref)) <= 1e-10 * ref
            assert sol.iterations < 100

    @pytest.mark.parametrize("K,rho,snr_db", [(48, 0.9, 40.0), (48, 0.5, 40.0), (16, 0.9, 60.0), (16, 0.5, 60.0)])
    def test_safeguarded_cases(self, K, rho, snr_db):
        # Unguarded Anderson extrapolation stalls on these inputs.
        eta = 10.0 ** (-snr_db / 10.0)
        R, theta = exp_random_case(64, K, rho, seed=K)
        oracle, shortfall = picard_oracle(R, eta)
        sol = solve_exponential_fixed_point(64, rho, theta, eta)
        assert np.all(np.abs(sol.gamma - oracle) <= 1e-11 * oracle + shortfall)
        assert sol.iterations < 200

    def test_reports_contraction_and_error_bound(self):
        # x = 2 at 20 dB: the map contracts by about gamma^2 / (x (1 + gamma)^2).
        eta = 0.01
        sol = solve_exponential_fixed_point(64, 0.0, np.zeros(32), eta)
        gamma = gamma_uncorrelated(2.0, eta)
        assert sol.contraction == pytest.approx(gamma**2 / (2.0 * (1.0 + gamma) ** 2), rel=0.1)
        assert sol.error_bound == pytest.approx(
            sol.residual * sol.contraction / (1.0 - sol.contraction)
        )
        assert max(sol.residual, sol.error_bound) <= 1e-12 * (1.0 + sol.gamma.max())

    def test_zero_residual_reports_the_rounding_floor(self):
        # N = K = 64 at 80 dB with even phases stops on a residual of exactly
        # 0, 7.3e-12 from the closed form, with contraction 0.9998.
        eta = 1e-8
        sol = solve_exponential_fixed_point(64, 0.0, 2.0 * np.pi * np.arange(64) / 64, eta)
        error = np.abs(sol.gamma - gamma_uncorrelated(1.0, eta)).max()
        assert sol.residual == 0.0
        assert sol.error_bound == EPS * (1.0 + sol.gamma.max()) / (1.0 - sol.contraction)
        assert sol.error_bound >= error > 0.0

    @pytest.mark.parametrize("K", [32, 48])
    @pytest.mark.parametrize("snr_db", [20.0, 40.0, 60.0, 80.0, 100.0])
    def test_contraction_matches_uncorrelated_closed_form(self, K, snr_db):
        # R_k = I: every row of the Jacobian sums to gamma^2 / (x (1 + gamma)^2),
        # and equal weights make that sum the contraction factor.
        eta = 10.0 ** (-snr_db / 10.0)
        x = 64 / K
        theta = np.random.default_rng(K).uniform(0.0, 2.0 * np.pi, K)
        sol = solve_exponential_fixed_point(64, 0.0, theta, eta)
        gamma = gamma_uncorrelated(x, eta)
        assert sol.contraction == pytest.approx(gamma**2 / (x * (1.0 + gamma) ** 2), rel=1e-6)

    @pytest.mark.parametrize("N,K,rho,snr_db", [
        (16, 8, 0.5, 20.0), (16, 16, 0.9, 40.0), (32, 12, 0.99, 60.0), (24, 24, 0.3, 80.0),
    ])
    def test_contraction_is_under_its_closed_form_ceiling(self, N, K, rho, snr_db):
        # J (1 + x) = g - K eta tr(R_k X^2) <= g, so L <= max_k g_k / (1 + x_k),
        # up to the forward difference's error (about sqrt(eps) relative).
        eta = 10.0 ** (-snr_db / 10.0)
        R, theta = exp_random_case(N, K, rho, seed=N + K)
        for sol in (solve_fixed_point(R, eta), solve_exponential_fixed_point(N, rho, theta, eta)):
            assert 0.0 <= sol.contraction <= np.max(sol.gamma / (1.0 + sol.gamma)) * (1.0 + 1e-6)
            assert sol.error_bound >= 0.0

    @pytest.mark.parametrize("N", [1, 2, 7, 64])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
    def test_toeplitz_inverse_sums_match_explicit_inverse(self, N, rho):
        K = 5
        w = rng.uniform(0.01, 1.0, K)
        theta = rng.uniform(0.0, 2.0 * np.pi, K)
        lags = np.arange(N)
        t = rho ** lags * (w @ np.exp(1j * np.outer(theta, lags)))
        t[0] += K * 1e-3
        d = np.subtract.outer(lags, lags)
        M = np.where(d >= 0, t[np.abs(d)], t[np.abs(d)].conj())
        inverse = np.linalg.inv(M)
        explicit = np.array([np.trace(inverse, offset=-k) for k in range(N)])
        sums = _toeplitz_inverse_sums(N)(t)
        assert np.max(np.abs(sums - explicit)) <= 1e-13 * np.max(np.abs(explicit))

    @pytest.mark.parametrize("N", [64, 512])
    @pytest.mark.parametrize("K", [5, "N/2"])
    def test_toeplitz_inverse_sums_at_the_hard_end(self, N, K):
        # rho 0.999 at 100 dB. Both routes, the Levinson recursion and
        # numpy's LU inverse, are accurate to about cond(M) eps; set before
        # the run: within 10 eps cond(M) of the largest sum.
        K = N // 2 if K == "N/2" else K
        gen = np.random.default_rng([N, K])
        w = gen.uniform(0.01, 1.0, K)
        theta = gen.uniform(0.0, 2.0 * np.pi, K)
        lags = np.arange(N)
        t = 0.999 ** lags * (w @ np.exp(1j * np.outer(theta, lags)))
        t[0] += K * 1e-10
        M = hermitian_toeplitz(t)
        inverse = np.linalg.inv(M)
        explicit = np.array([np.trace(inverse, offset=-k) for k in range(N)])
        sums = _toeplitz_inverse_sums(N)(t)
        bound = 10.0 * EPS * np.linalg.cond(M) * np.max(np.abs(explicit))
        assert np.max(np.abs(sums - explicit)) <= bound

    @pytest.mark.parametrize("N", [2, 7, 64])
    @pytest.mark.parametrize("margin", [-0.1, -1e-4, 1e-4, 0.1])
    def test_toeplitz_definiteness_matches_smallest_eigenvalue(self, N, margin):
        # Random Hermitian Toeplitz matrices shifted so that the smallest
        # eigenvalue is margin times the spread of the spectrum: the solve
        # raises exactly when that eigenvalue is not positive. a_0 > 0, the
        # first entry of the inverse, would pass some of the indefinite ones
        # with several negative eigenvalues.
        gen = np.random.default_rng([N, round(abs(margin) * 1e4), margin > 0])
        a0_positive = 0
        for _ in range(20):
            t = gen.standard_normal(N) + 1j * gen.standard_normal(N)
            t[0] = 0.0
            lam = np.linalg.eigvalsh(hermitian_toeplitz(t))
            t[0] = margin * (lam[-1] - lam[0]) - lam[0]
            M = hermitian_toeplitz(t)
            definite = np.linalg.eigvalsh(M).min() > 0.0
            try:
                _toeplitz_inverse_sums(N)(t)
            except np.linalg.LinAlgError as exc:
                assert "Toeplitz resolvent is not positive definite" in str(exc)
                assert not definite
                a0_positive += np.linalg.inv(M)[0, 0].real > 0.0
            else:
                assert definite
        if margin == -0.1 and N > 2:
            assert a0_positive > 0


def hermitian_toeplitz(t):
    """The Hermitian Toeplitz matrix with first column ``t``."""
    d = np.subtract.outer(np.arange(t.size), np.arange(t.size))
    return np.where(d >= 0, t[np.abs(d)], t[np.abs(d)].conj())


# The rounding floor of the grid below, in units of eps (1 + gamma) / (1 - L),
# the limit the AsymptoticSolution docstring names. Set before the run.
BOUND_FLOOR_ULPS = 16.0


class TestErrorBound:
    """The vector solver's error bound against the scalar route's exact value."""

    @pytest.mark.parametrize("snr_db", [40.0, 60.0, 80.0, 100.0, 120.0])
    @pytest.mark.parametrize("rho", [0.0, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("N,K", [(16, 8), (16, 16), (64, 32), (64, 64)])
    def test_bound_covers_distance_to_exp_even(self, N, K, rho, snr_db):
        # Even phases give every user gamma_exp_even. With L taken from the
        # residual ratio of one plain step, 19 of these 80 cases failed this
        # check, and 41 exceeded the bound plus 4 eps (1 + gamma), the worst
        # by 27,000 times.
        eta = 10.0 ** (-snr_db / 10.0)
        sol = solve_exponential_fixed_point(N, rho, 2.0 * np.pi * np.arange(K) / K, eta)
        exact = gamma_exp_even(N, K, rho, eta, tol=1e-15)
        assert sol.contraction < 1.0
        floor = BOUND_FLOOR_ULPS * EPS * (1.0 + exact) / (1.0 - sol.contraction)
        assert np.abs(sol.gamma - exact).max() <= sol.error_bound + floor


class TestContinuation:
    """Solves started at a nearby solution, as the correlation sweep chains them."""

    CONTINUATION_RHO = np.linspace(0.0, 0.99, 12)

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    @pytest.mark.parametrize("snr_db", [20.0, 60.0, 80.0])
    @pytest.mark.parametrize("N,K", [(16, 8), (16, 16), (64, 32), (64, 64)])
    def test_carried_start_matches_even_closed_form(self, N, K, snr_db, order):
        # Even phases, so every user's exact value is gamma_exp_even. Each
        # point starts at the last one's gammas, the first at the closed
        # form, as the sweep runs. The warm start must land within the
        # tolerance, or be no worse than the cold start: that one misses by
        # up to 3e-9 relative at 64x64 and 80 dB, where the stop rule's bound
        # understates the error.
        eta = 10.0 ** (-snr_db / 10.0)
        theta = 2.0 * np.pi * np.arange(K) / K
        grid = self.CONTINUATION_RHO if order == "forward" else self.CONTINUATION_RHO[::-1]
        gamma = np.full(K, gamma_uncorrelated(N / K, eta))
        phase = _phase_table(N, theta)
        for rho in grid:
            gamma = _solve_toeplitz(phase, rho, eta, DEFAULT_TOL, gamma).gamma
            exact = gamma_exp_even(N, K, rho, eta, tol=1e-15)
            cold = solve_exponential_fixed_point(N, rho, theta, eta).gamma
            allowed = max(DEFAULT_TOL * (1.0 + gamma.max()), np.abs(cold - exact).max())
            assert np.abs(gamma - exact).max() <= allowed, rho

    def test_closed_form_start_is_exact_at_rho_zero(self):
        # The sweep's first start: R_k = I at rho = 0, so the closed form is
        # the fixed point and the solver only confirms it (22 steps from zeros).
        N, K, eta = 64, 48, 0.01
        theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, K)
        ref = gamma_uncorrelated(N / K, eta)
        sol = _solve_toeplitz(_phase_table(N, theta), 0.0, eta, DEFAULT_TOL, np.full(K, ref))
        assert sol.iterations <= 2
        assert np.abs(sol.gamma - ref).max() <= DEFAULT_TOL * (1.0 + ref)

    def test_default_start_is_the_uncorrelated_closed_form(self):
        theta = np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, 12)
        cold = solve_exponential_fixed_point(32, 0.6, theta, 0.01)
        closed = np.full(12, gamma_uncorrelated(32 / 12, 0.01))
        started = _solve_toeplitz(_phase_table(32, theta), 0.6, 0.01, DEFAULT_TOL, closed)
        assert np.array_equal(cold.gamma, started.gamma)
        assert cold.iterations == started.iterations


class TestCommonRBound:
    def test_equality_for_identity(self):
        chk = check_common_r_bound(np.ones(16), K=8, eta=0.05)
        assert chk.holds
        assert abs(chk.gamma - chk.bound) <= 1e-10 * chk.bound

    @pytest.mark.parametrize("N,K", [(1, 1), (16, 16), (16, 4), (64, 64), (64, 32)])
    @pytest.mark.parametrize("snr_db", [40.0, 45.0, 50.0, 55.0, 60.0, 70.0, 80.0])
    def test_equality_holds_at_high_snr(self, N, K, snr_db):
        # gamma is in the thousands here, so the root search may stop above
        # the closed form by more than the absolute 1e-10 rounding margin.
        chk = check_common_r_bound(np.ones(N), K=K, eta=10.0 ** (-snr_db / 10.0))
        assert chk.holds
        assert abs(chk.gamma - chk.bound) <= 1e-10 * chk.bound

    @pytest.mark.parametrize("N", [1, 16, 64])
    @pytest.mark.parametrize("snr_db", np.arange(90.0, 121.0, 2.0))
    def test_equality_holds_at_extreme_snr(self, N, snr_db):
        # The closed form's b = eta + (1 - x) is exact at x = 1; grouped as
        # (eta - x) + 1 it lost eta to rounding and read False from 92 dB.
        chk = check_common_r_bound(np.ones(N), K=N, eta=10.0 ** (-snr_db / 10.0))
        assert chk.holds

    def test_moderate_correlation_strict(self):
        chk = check_common_r_bound(exponential_eigenvalues(32, 0.5), K=16, eta=0.01)
        assert chk.holds and chk.gamma < chk.bound

    def test_near_unit_rho_still_holds(self):
        chk = check_common_r_bound(exponential_eigenvalues(32, 0.999), K=16, eta=0.01)
        assert chk.holds
        assert chk.gamma < 0.5 * chk.bound

    def test_random_profiles_hold(self):
        for _ in range(200):
            n = int(rng.integers(4, 49))
            k = int(rng.integers(2, 25))
            lam = rng.dirichlet(np.ones(n)) * n
            eta = float(10 ** (-rng.uniform(-5, 30) / 10))
            assert check_common_r_bound(lam, K=k, eta=eta).holds
