import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoslnr import loading
from mimoslnr.asymptotic import EPS, _FLOOR_ULPS, _newton_root
from mimoslnr.channel import eta_from_snr_db
from mimoslnr.loading import (
    CLAMPED_AT_ONE,
    EXACT_ROOT_FIND,
    LOADING_TOL,
    X_UPPER_LOOSE,
    _dfdx_float,
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
from mimoslnr.oracles import BRUTE_STEP, brute_force_optimal_x

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestEtaThreshold:
    def test_value_to_four_decimals(self):
        assert abs(eta_threshold() - 0.3256) < 5e-5

    def test_pinned_and_near_scipys_brent_root(self):
        def g(eta):
            s = math.sqrt(eta * eta + 4.0 * eta)
            return s * math.log((eta + s) / (2.0 * eta)) - 1.0

        # Each search stops within 1e-14 + 4 eps * eta of the root, so the
        # two are at most twice that apart (a bound set before the run).
        ref = scipy.optimize.brentq(g, 0.05, 1.0, xtol=1e-14, rtol=8.9e-16)
        assert abs(eta_threshold() - ref) <= 2.0 * (1e-14 + 4.0 * EPS * ref)
        assert eta_threshold() == 0.3256406730899648

    @settings(max_examples=100, deadline=None)
    @given(start=st.floats(0.05, 1.0))
    def test_search_from_any_start_is_certified(self, start):
        root = _newton_root(loading._threshold_fdf, 0.05, 1.0, start, 1e-14, 4.0 * EPS, 100)
        assert root.lo <= root.root <= root.hi
        assert abs(root.root - eta_threshold()) <= 2.0 * (1e-14 + 4.0 * EPS * root.root)
        if root.lo < root.hi:
            assert root.hi - root.lo <= 1e-14 + 4.0 * EPS * root.root
            assert loading._threshold_fdf(root.lo)[0] > 0.0 > loading._threshold_fdf(root.hi)[0]
        else:
            f, _, scale = loading._threshold_fdf(root.root)
            assert abs(f) <= _FLOOR_ULPS * EPS * scale

    def test_defining_equation_residual(self):
        eta = eta_threshold()
        s = math.sqrt(eta * eta + 4.0 * eta)
        assert abs(s * math.log((eta + s) / (2.0 * eta)) - 1.0) < 1e-8

    def test_is_derivative_root_at_x_one(self):
        assert abs(dfdx(1.0, eta_threshold())) < 1e-8

    def test_constants_are_self_consistent(self):
        lc = loading_constants()
        assert lc.eta_o == eta_threshold()
        assert lc.snr_threshold_db == pytest.approx(10.0 * math.log10(1.0 / lc.eta_o))
        assert lc.x_ub_loose == pytest.approx(X_UPPER_LOOSE)
        assert 1.0 < lc.x_ub_tight < lc.x_ub_loose


class TestObjective:
    def test_unit_point(self):
        assert objective_f(1.0, 1.0) == pytest.approx(math.log(1.0 + GOLDEN), abs=1e-12)

    def test_vanishes_at_large_eta(self):
        assert 0.0 < objective_f(2.0, 1e6) < 1e-5

    def test_positive_everywhere(self):
        xs = np.linspace(1.0, 10.0, 50)
        for eta in (1e-4, 0.1, 1.0, 50.0):
            assert np.all(objective_f(xs, eta) > 0.0)

    @pytest.mark.parametrize("eta", [1e-20, 1e-30])
    def test_no_warning_at_high_snr(self, eta):
        # The brute-force oracle's grid; sweep-loading printed numpy's
        # divide-by-zero warning from it at these SNRs.
        xs = np.linspace(1.0, 1.5, 5001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = objective_f(xs, eta)
        assert np.all(np.isfinite(values))


class TestDerivative:
    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1, 0.2])
    def test_matches_central_finite_difference(self, eta):
        xs = np.arange(1.0, 3.0 + 1e-9, 1e-3)
        x_star = optimal_x_exact(eta, tol=1e-12).x_star
        h = 1e-6
        fd = (objective_f(xs + h, eta) - objective_f(xs - h, eta)) / (2.0 * h)
        an = dfdx(xs, eta)
        away = np.abs(xs - x_star) > 1e-3
        rel = np.abs(fd[away] - an[away]) / np.abs(an[away])
        assert float(rel.max()) < 1e-5
        near = ~away
        if near.any():
            assert float(np.max(np.abs(fd[near] - an[near]))) < 1e-8

    def test_zero_at_threshold_unit_x(self):
        assert abs(dfdx(1.0, eta_threshold())) < 1e-3

    def test_negative_at_unit_x_above_threshold(self):
        assert dfdx(1.0, 0.5) < 0.0

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.1, 0.2])
    def test_single_sign_change_around_optimum(self, eta):
        xs = np.arange(1.0, 3.0 + 1e-9, 1e-3)
        x_star = optimal_x_exact(eta, tol=1e-12).x_star
        d = dfdx(xs, eta)
        assert np.all(d[xs < x_star] > 0.0)
        assert np.all(d[xs > x_star] < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dfdx(1.0, 0.0)


class TestDerivativeFloatPath:
    """The bisection's float kernel ``_dfdx_float``; dfdx's numpy form is the reference."""

    @pytest.mark.parametrize("eta", [1e-30, 1e-6, 0.01, eta_threshold(), 0.5, 1e6])
    @pytest.mark.parametrize("x", [1, 1.2, X_UPPER_LOOSE, 1e300])
    def test_matches_array_path(self, x, eta):
        with np.errstate(all="ignore"):
            got = _dfdx_float(float(x), eta)
            ref = dfdx(np.array(x), eta)
        assert type(got) is float and type(ref) is float
        if math.isfinite(ref):
            assert abs(got - ref) <= 4.0 * math.ulp(ref)
        else:
            # The same nan, or an inf of the same sign.
            assert repr(got) == repr(ref)

    @pytest.mark.parametrize("eta", [1e-30, 1e-6, 0.01, eta_threshold(), 0.5, 1e6])
    @pytest.mark.parametrize("x", [0.0, -0.0, 0.5, 1, 1.2, X_UPPER_LOOSE, 1e300, math.nan, math.inf])
    def test_scalar_is_the_array_form(self, x, eta):
        # dfdx has one form: a Python float gives a float with the 0-d array's
        # bits, and an x outside (0, inf), which gave NaN or a number, raises in both.
        if not 0.0 < x < math.inf:
            for arg in (float(x), np.array(x)):
                with pytest.raises(ValueError, match="x must be"):
                    dfdx(arg, eta)
            return
        with np.errstate(all="ignore"):
            got = dfdx(float(x), eta)
            ref = dfdx(np.array(x), eta)
        assert type(got) is float and repr(got) == repr(ref)

    @pytest.mark.parametrize("grid", [(0.0, 40.0, 81), (-10.0, 60.0, 141), (55.0, 120.0, 14)])
    def test_root_bit_equal_to_array_path(self, monkeypatch, grid):
        # The bisection calls the float kernel _dfdx_float; replacing that
        # name with dfdx's numpy form makes every sign test take the array
        # path. tol=1e-300 bisects down to adjacent floats, where the sign
        # tests near the root turn on the last bits of the derivative: a
        # reassociated kernel passes at the default tol but fails there.
        etas = eta_from_snr_db(np.linspace(*grid))
        real_dfdx = loading.dfdx
        for tol in (LOADING_TOL, 1e-300):
            fast = np.array([optimal_x_exact(eta, tol).x_star for eta in etas])
            with monkeypatch.context() as patch:
                patch.setattr(loading, "_dfdx_float", lambda x, eta: real_dfdx(np.asarray(x), eta))
                slow = np.array([optimal_x_exact(eta, tol).x_star for eta in etas])
            assert np.array_equal(fast.view(np.int64), slow.view(np.int64)), f"tol={tol!r}"


class TestOptimalXExact:
    @pytest.mark.parametrize("eta", [0.33, 0.5, 1.0, 10.0])
    def test_clamped_above_threshold(self, eta):
        sol = optimal_x_exact(eta)
        assert sol.x_star == 1.0 and sol.alpha_star == 1.0
        assert sol.method == CLAMPED_AT_ONE

    # Above eta ~ 5.4e7 the sign of dfdx(1, eta) cancels catastrophically:
    # these grids gave BracketErrors and roots x_star > 1 where the optimum is 1.
    @pytest.mark.parametrize("etas", [
        pytest.param(eta_from_snr_db(np.linspace(-77.0, -200.0, 1231)), id="-77..-200dB"),
        pytest.param(np.logspace(0, 300, 3001), id="logspace-0-300"),
    ])
    def test_clamped_at_every_low_snr(self, etas):
        for eta in etas:
            sol = optimal_x_exact(eta)
            assert sol.x_star == 1.0 and sol.method == CLAMPED_AT_ONE, f"eta={eta!r}"

    def test_tol_below_float_spacing_terminates(self):
        # The bracket cannot shrink below one float spacing, so the bisection
        # stops once the midpoint rounds onto an endpoint.
        tight = optimal_x_exact(0.01, tol=1e-12).x_star
        assert abs(optimal_x_exact(0.01, tol=1e-300).x_star - tight) <= 1e-12

    def test_interior_root_below_threshold(self):
        sol = optimal_x_exact(0.1)
        assert sol.method == EXACT_ROOT_FIND
        assert 1.0 < sol.x_star < X_UPPER_LOOSE
        assert abs(dfdx(sol.x_star, 0.1)) < 1e-8

    def test_solution_invariants(self):
        for eta in 10.0 ** (-np.linspace(-10.0, 40.0, 25) / 10.0):
            sol = optimal_x_exact(eta)
            assert 1.0 <= sol.x_star < 1.392305
            assert abs(sol.alpha_star * sol.x_star - 1.0) <= 1e-14
            assert sol.objective == pytest.approx(objective_f(sol.x_star, eta), rel=1e-12)

    def test_loose_bound_on_log_spaced_grid(self):
        etas = np.logspace(-6, 1, 200)
        xs = np.array([optimal_x_exact(e).x_star for e in etas])
        assert np.all(xs < X_UPPER_LOOSE)
        assert np.all(xs <= 1.3315 + 5e-3)

    def test_tight_bound_is_the_peak_over_eta(self):
        # Golden-section search to 1e-12 in eta: no grid point beats it.
        etas = np.linspace(1e-6, eta_threshold(), 2001)
        best = max(optimal_x_exact(e, tol=1e-12).x_star for e in etas)
        assert best <= x_upper_tight() < best + 1e-6

    def test_tight_bound_value_and_interior_maximum(self):
        assert abs(x_upper_tight() - 1.3315) <= 5e-3
        etas = np.logspace(-6, np.log10(eta_threshold()), 60)
        xs = np.array([optimal_x_exact(e).x_star for e in etas])
        peak = int(np.argmax(xs))
        assert 0 < peak < xs.size - 1, "maximum should sit at an interior eta"

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.2, 0.3])
    def test_agrees_with_grid_search(self, eta):
        from mimoslnr.oracles import brute_force_optimal_x

        assert abs(optimal_x_exact(eta).x_star - brute_force_optimal_x(eta)) <= 1e-3


class TestLowSnrApprox:
    def test_equals_one_at_threshold(self):
        # At the threshold the Taylor constant is exactly 1/2, collapsing
        # the closed form to 1.
        assert optimal_x_low_snr(eta_threshold()) == pytest.approx(1.0, abs=1e-9)

    def test_against_exact_at_quarter(self):
        exact = optimal_x_exact(0.25).x_star
        approx = optimal_x_low_snr(0.25)
        assert 1.0 < approx < 1.392
        assert abs(approx - exact) / exact < 0.05

    def test_decreasing_in_eta(self):
        etas = np.linspace(0.2, 0.3256, 30)
        vals = [optimal_x_low_snr(e) for e in etas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_out_of_regime_raises(self):
        with pytest.raises(ValueError):
            optimal_x_low_snr(1.0)


class TestHighSnrApprox:
    def test_tends_to_one(self):
        # Convergence toward 1 is logarithmic in eta, so only loose bounds
        # make sense even at extreme SNR.
        assert optimal_x_high_snr(1e-15) < 1.04
        vals = [optimal_x_high_snr(e) for e in (1e-15, 1e-10, 1e-6, 1e-3)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_eta_small_range(self):
        etas = np.linspace(1e-4, 0.05, 40)
        vals = [optimal_x_high_snr(e) for e in etas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_accuracy_against_exact_root(self):
        """Frozen oracle values for the approximation error.

        The relative error versus the bisection root is 5.13% at 20 dB and
        decreases with SNR, crossing 2% near 25.2 dB; at 30 dB and beyond
        it stays under 1%.
        """
        def rel_error(eta):
            exact = optimal_x_exact(eta, tol=1e-12).x_star
            return (optimal_x_high_snr(eta) - exact) / exact

        assert rel_error(1e-2) == pytest.approx(0.0513, abs=1e-3)
        assert 0.0 < rel_error(1e-3) < 0.01
        assert 0.0 < rel_error(1e-4) < 0.002

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_x_high_snr(1.0)
        with pytest.raises(ValueError):
            optimal_x_high_snr(0.0)


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_at_one_against_bisection_oracle(self):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert lambert_w0(1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.567143, abs=1e-6)

    def test_residual_contract_across_range(self):
        for z in [-1.0 / math.e, -0.3, -0.05, 0.1, 1.0, 2.5, math.e, 10.0, 1e3, 1e8]:
            w = lambert_w0(z)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    # lambert_w0(nan) and lambert_w0(inf) ran 100 Halley steps and raised
    # RuntimeError; a complex z raised TypeError and a string one ran.
    @pytest.mark.parametrize("z", [
        math.nan, math.inf, -math.inf, 1.0 + 0j, "1.0", True, None, np.array([1.0]),
    ], ids=["nan", "inf", "-inf", "complex", "str", "bool", "None", "array"])
    def test_rejects_what_is_not_a_finite_real(self, z):
        with pytest.raises(ValueError, match="z"):
            lambert_w0(z)

    # From about z = 2.76e307 Halley's (w + 2) err term overflowed, the step
    # stopped moving w, and lambert_w0 raised RuntimeError up to the largest double.
    @pytest.mark.parametrize("z", [2.7e307, 2.76e307, 1e308, float(np.finfo(float).max)])
    def test_past_halley_overflow(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = lambert_w0(z)
            w_np = lambert_w0(np.float64(z))
        # w e^w = z in logs, which keeps the check finite.
        assert abs(w + math.log(w) - math.log(z)) <= 1e-12
        assert w_np == w

    def test_log_form_matches_halley_where_both_run(self):
        for z in [10.0, 1e3, 1e8, 1e100, 1e300]:
            assert loading._lambert_w0_of_log(math.log(z)) == pytest.approx(
                lambert_w0(z), rel=4 * EPS
            )


class TestExtremeSnr:
    """The loading path from 3078.8 dB, where Halley's step in ``lambert_w0``
    first overflowed, to 3236 dB, the last SNR that ``eta_from_snr_db`` accepts.
    Past about 3081 dB ``1 + gamma`` can pass the largest double on the
    bisection's bracket and on the brute-force grid, so those two raise
    ``OverflowError``; the closed forms stay finite."""

    @pytest.mark.parametrize("snr_db", [3078.8, 3236.0])
    def test_closed_forms_are_finite(self, snr_db):
        eta = eta_from_snr_db(snr_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            high = optimal_x_high_snr(eta)
            low = optimal_x_low_snr(eta)
        # 1 - eta + 1 / W(1 / (eta e)) to first order: about 1 + 1 / log(1 / eta).
        assert 1.0 < high < 1.0 + 1.1 / -math.log(eta)
        assert math.isfinite(low)

    def test_exact_and_brute_force_at_3078_8_db(self):
        eta = eta_from_snr_db(3078.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = optimal_x_exact(eta)
            brute = brute_force_optimal_x(eta)
        assert math.isfinite(sol.objective)
        assert sol.x_star == pytest.approx(optimal_x_high_snr(eta), rel=1e-6)
        assert abs(brute - sol.x_star) <= BRUTE_STEP

    def test_exact_and_brute_force_raise_at_3236_db(self):
        # The exact optimizer printed x_star = 1.000000 (the true one is
        # about 1.00136) and objective_nats = inf; the oracle warned of overflow.
        eta = eta_from_snr_db(3236.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="eta"):
                optimal_x_exact(eta)
            with pytest.raises(OverflowError, match="eta"):
                brute_force_optimal_x(eta)
