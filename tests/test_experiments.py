import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoslnr import __version__, experiments, oracles
from mimoslnr.asymptotic import DEFAULT_TOL, solve_exponential_fixed_point
from mimoslnr.channel import SystemConfig, eta_from_snr_db, trial_rng, user_phases
from mimoslnr.experiments import (
    ExperimentResult,
    _format_column,
    _format_value,
    run_cdf_experiment,
    run_correlation_sweep,
    run_loading_sweep,
    write_csv,
)
from mimoslnr.loading import eta_threshold, loading_constants, objective_f, optimal_x_exact
from mimoslnr.oracles import BRUTE_HI, BRUTE_LO, BRUTE_STEP, brute_force_optimal_x


def reference_csv(result):
    """The bytes of the whole-file writer: every line built, then one write."""
    lines = [f"# experiment = {result.name}", f"# version = {__version__}"]
    lines += [f"# {key} = {_format_value(value)}" for key, value in result.metadata.items()]
    lines.append(",".join(result.columns))
    cols = [[_format_value(v) for v in np.asarray(col)] for col in result.columns.values()]
    lines.extend(map(",".join, zip(*cols)))
    return ("\n".join(lines) + "\n").encode("utf-8")


BLOCK = experiments.CSV_BLOCK_ROWS
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 0.1, 1e308]
# Text without line breaks or lone surrogates (which UTF-8 cannot encode).
LINE_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"))


@st.composite
def csv_results(draw):
    """Results around the block boundaries, with every column and metadata type."""
    rows = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["float", "float32", "special", "constant", "per-block", "int", "bool"]
        ))
        if kind == "special":  # every special value, mixed at random
            values = np.array(SPECIAL_FLOATS)
        else:
            values = np.array(draw(st.lists(floats, min_size=1, max_size=6)))
        if kind in ("float", "float32", "special"):
            col = values[rng.integers(values.size, size=rows)]
            if kind == "float32":
                with np.errstate(over="ignore"):  # 1e308 becomes inf, a case in itself
                    col = col.astype(np.float32)
        elif kind == "constant":
            col = np.full(rows, values[0])
        elif kind == "per-block":
            # Constant within each block but not over the column.
            col = np.resize(np.repeat(values, BLOCK), rows)
        elif kind == "int":
            col = rng.integers(-2**63, 2**63 - 1, size=rows, endpoint=True)
        else:
            col = rng.integers(2, size=rows).astype(bool)
        columns[f"{kind}_{i}"] = col
    metadata = {
        "flag": draw(st.booleans()),
        "np_flag": np.bool_(draw(st.booleans())),
        "count": draw(st.integers()),
        "np_count": np.int64(draw(st.integers(-2**63, 2**63 - 1))),
        "value": draw(floats),
        "np_value": np.float32(draw(st.floats(width=32))),
        "text": draw(LINE_TEXT),
        "unset": None,
    }
    return ExperimentResult(name="cdf", columns=columns, metadata=metadata)


class TestCdfExperiment:
    def test_pools_cost_two_arrays(self, monkeypatch):
        # A unit is one pooled array of trials * K floats. The run holds its
        # two pools, sorted in place into the slnr and sinr columns, the
        # levels and the constant column: 4 units, bounded at 5. Sorting
        # copies of the pools and building the levels once per column read
        # 7.06 units, and keeping two arrays per trial and concatenating
        # them 11.8. The kernels' own memory is one block of trials (with
        # them, after a warm-up run, the run reads 4.12 units), so they are
        # replaced by stubs that return fresh arrays, as compute_metrics
        # does, one row per trial of the block's stack (64 trials of 16 x 8
        # here, 0.1 units): tracing them 20,000 times takes seconds.
        N, K, trials = 16, 8, 20_000
        unit = trials * K * 8
        bound = 5 * unit
        cfg = SystemConfig.make(N=N, K=K, snr_db=10.0, trials=trials, seed=3)
        realization = experiments.sample_channel(cfg, 0)
        metrics = experiments.compute_metrics(realization.H, cfg.eta)
        monkeypatch.setattr(experiments, "sample_channel", lambda config, trial: realization)
        monkeypatch.setattr(experiments, "compute_metrics", lambda H, eta: SimpleNamespace(
            slnr=np.tile(metrics.slnr, (len(H), 1)), sinr=np.tile(metrics.sinr, (len(H), 1))))
        tracemalloc.start()
        try:
            res = run_cdf_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.columns["slnr"].size == trials * K
        assert peak < bound, f"traced peak {peak / unit:.2f} units"

    def test_default_op_peak_is_bounded(self, tmp_path):
        # One sweep-cdf op at the command's defaults (64 x 32, 20 dB, 100
        # trials), run and written as the benchmark's mc-iid op is. Its
        # traced peak was 0.23 MiB with one trial per compute_metrics call;
        # a block of trials adds its channel stack and the kernels' stacked
        # temporaries. The bound was set at 1 MiB before the first run.
        cfg = SystemConfig.make(N=64, K=32, snr_db=20.0, trials=100, seed=0)
        write_csv(run_cdf_experiment(cfg), tmp_path / "warm-up.csv")  # LAPACK loads once
        tracemalloc.start()
        try:
            write_csv(run_cdf_experiment(cfg), tmp_path / "cdf.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.3f} MiB"

    def test_median_near_asymptotic(self):
        cfg = SystemConfig.make(N=64, K=32, snr_db=20.0, trials=200, seed=2)
        res = run_cdf_experiment(cfg)
        med = float(np.median(res.columns["slnr"]))
        gamma = float(res.columns["gamma_asymptotic"][0])
        assert abs(med - gamma) / gamma < 0.05

    def test_interquartile_range_shrinks_with_n(self):
        iqrs = {}
        for N in (16, 128):
            cfg = SystemConfig.make(N=N, K=N // 2, snr_db=20.0, trials=150, seed=5)
            slnr = run_cdf_experiment(cfg).columns["slnr"]
            iqrs[N] = float(np.percentile(slnr, 75) - np.percentile(slnr, 25))
        assert iqrs[128] < iqrs[16]

    def test_smaller_loading_concentrates_faster(self):
        from mimoslnr.channel import sample_channel
        from mimoslnr.precoding import compute_metrics
        from mimoslnr.asymptotic import gamma_uncorrelated

        medians = {}
        for K in (16, 48):
            cfg = SystemConfig.make(N=64, K=K, snr_db=20.0, trials=100, seed=9)
            gamma = gamma_uncorrelated(64 / K, cfg.eta)
            devs = []
            for t in range(cfg.trials):
                m = compute_metrics(sample_channel(cfg, t).H, cfg.eta)
                devs.append(np.abs(m.sinr - gamma) / gamma)
            medians[K] = float(np.median(np.concatenate(devs)))
        assert medians[16] < medians[48]

    def test_levels_and_sorted_columns(self):
        # Plotting positions i/(n+1), strictly inside (0, 1), beside sorted samples.
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=3, seed=0)
        res = run_cdf_experiment(cfg)
        n = cfg.K * cfg.trials
        levels = res.columns["cdf_level"]
        np.testing.assert_array_equal(levels, np.arange(1, n + 1) / (n + 1))
        assert 0.0 < levels[0] and levels[-1] < 1.0 and np.all(np.diff(levels) > 0)
        for name in ("slnr", "sinr"):
            assert np.all(np.diff(res.columns[name]) >= 0), name

    def test_columns_equal_length_and_constant_gamma(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=5, seed=0)
        res = run_cdf_experiment(cfg)
        n = cfg.K * cfg.trials
        assert all(len(col) == n for col in res.columns.values())
        assert np.ptp(res.columns["gamma_asymptotic"]) == 0.0

    def test_requires_identity_profile(self):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, kind="exp-even", rho=0.5, trials=2)
        with pytest.raises(ValueError):
            run_cdf_experiment(cfg)


@pytest.fixture(scope="module")
def correlation_sweep():
    return run_correlation_sweep(
        N=32, alpha=0.75, snr_db=20.0, rho_grid=[0.0, 0.3, 0.6, 0.9],
        trials_for_random_theta=5, seed=1,
    )


@pytest.fixture(scope="module")
def loading_sweep():
    return run_loading_sweep(np.linspace(0.0, 40.0, 81))


class TestCorrelationSweep:
    @pytest.fixture
    def sweep(self, correlation_sweep):
        return correlation_sweep

    def test_rho_zero_all_equal(self, sweep):
        ref = sweep.columns["gamma_uncorrelated"][0]
        for name in ("gamma_exp_even", "gamma_exp_random_avg", "gamma_exp_common"):
            assert sweep.columns[name][0] == pytest.approx(ref, rel=1e-10)

    def test_even_scheme_matches_uncorrelated(self, sweep):
        # The even scheme neutralizes correlation, up to the lag-K residue
        # of a wide array (rho^K at N > K).
        ref = sweep.columns["gamma_uncorrelated"]
        even = sweep.columns["gamma_exp_even"]
        assert np.max(np.abs(even - ref) / ref) < 5e-3

    def test_scheme_ordering_at_every_rho(self, sweep):
        common = sweep.columns["gamma_exp_common"]
        rand = sweep.columns["gamma_exp_random_avg"]
        even = sweep.columns["gamma_exp_even"]
        assert np.all(common <= rand + 1e-8)
        assert np.all(rand <= even + 1e-8)

    def test_random_much_closer_to_even_than_common(self, sweep):
        # At strong correlation the random-phase average sits near the
        # even-phase curve, far from the shared-phase one.
        i = 3  # rho = 0.9
        common = sweep.columns["gamma_exp_common"][i]
        rand = sweep.columns["gamma_exp_random_avg"][i]
        even = sweep.columns["gamma_exp_even"][i]
        assert (even - rand) < (rand - common)

    def test_both_averaging_levels_reported(self, sweep):
        assert "gamma_exp_random_avg" in sweep.columns
        assert "gamma_exp_random_single_draw" in sweep.columns
        assert not np.array_equal(
            sweep.columns["gamma_exp_random_avg"][1:],
            sweep.columns["gamma_exp_random_single_draw"][1:],
        )


def test_correlation_sweep_converges_at_full_load_high_snr():
    # At N = K and 60 dB plain Picard iteration stalled on the exp-random
    # column (10 000 steps, residual 8e-9), so the sweep exited 2.
    sweep = run_correlation_sweep(
        N=64, alpha=1.0, snr_db=60.0, rho_grid=[0.0, 0.9], trials_for_random_theta=1
    )
    for name, column in sweep.columns.items():
        assert np.all(np.isfinite(column)), name
    ref = sweep.columns["gamma_uncorrelated"][0]
    assert sweep.columns["gamma_exp_random_avg"][0] == pytest.approx(ref, rel=1e-10)


SWEEP_RHO = np.linspace(0.0, 0.99, 12)


def test_correlation_sweep_draws_each_phase_set_once(monkeypatch):
    # The phases of draw d come from trial_rng(seed, d) once, not once per
    # rho, and each rho's solve is the cold one up to the tolerance.
    calls = []

    def counting_rng(seed, trial):
        calls.append((seed, trial))
        return trial_rng(seed, trial)

    monkeypatch.setattr(experiments, "trial_rng", counting_rng)
    N, K, snr_db, seed, draws = 32, 24, 20.0, 3, 4
    sweep = run_correlation_sweep(
        N=N, alpha=K / N, snr_db=snr_db, rho_grid=SWEEP_RHO, trials_for_random_theta=draws,
        seed=seed,
    )
    assert calls == [(seed, draw) for draw in range(draws)]
    config = SystemConfig.make(N, K, snr_db, kind="exp-random")
    eta = config.eta
    for i, rho in enumerate(SWEEP_RHO):
        means = [
            np.mean(solve_exponential_fixed_point(
                N, rho, user_phases(config, trial_rng(seed, draw)), eta
            ).gamma)
            for draw in range(draws)
        ]
        for name, cold in (
            ("gamma_exp_random_avg", np.mean(means)), ("gamma_exp_random_single_draw", means[0])
        ):
            gap = abs(sweep.columns[name][i] - cold)
            assert gap <= 2.0 * DEFAULT_TOL * (1.0 + cold), (name, rho)


def test_correlation_sweep_reversed_grid_gives_same_columns():
    # Each draw's gammas are carried along the grid in its order, so a
    # reversed grid takes another path to the same fixed points. At 20 dB
    # and 32 x 24 the two columns were within 0.6 tol (1 + gamma).
    kwargs = dict(N=32, alpha=0.75, snr_db=20.0, trials_for_random_theta=3, seed=4)
    forward = run_correlation_sweep(rho_grid=SWEEP_RHO, **kwargs).columns
    reverse = run_correlation_sweep(rho_grid=SWEEP_RHO[::-1], **kwargs).columns
    for name, column in forward.items():
        back = reverse[name][::-1]
        assert np.all(np.abs(column - back) <= 2.0 * DEFAULT_TOL * (1.0 + np.abs(column))), name


class TestLoadingSweep:
    @pytest.fixture
    def sweep(self, loading_sweep):
        return loading_sweep

    def test_alpha_one_below_threshold(self, sweep):
        snr = sweep.columns["snr_db"]
        alpha = sweep.columns["alpha_exact"]
        below = snr < loading_constants().snr_threshold_db
        assert np.all(alpha[below] == 1.0)
        assert np.all(sweep.columns["clamped"][below] == 1.0)

    def test_minimum_alpha_near_tight_bound(self, sweep):
        min_alpha = float(sweep.columns["alpha_exact"].min())
        assert abs(min_alpha - 0.751) <= 0.005

    def test_exact_matches_brute_force_everywhere(self, sweep):
        diff = np.abs(1.0 / sweep.columns["alpha_exact"] - 1.0 / sweep.columns["alpha_brute_force"])
        assert float(diff.max()) <= 1e-3

    def test_alpha_still_below_one_at_40db(self, sweep):
        assert sweep.columns["alpha_exact"][-1] < 0.9

    def test_approximations_defined_only_below_threshold(self, sweep):
        eta_o = eta_threshold()
        etas = sweep.columns["eta"]
        low = sweep.columns["alpha_low_snr_approx"]
        high = sweep.columns["alpha_high_snr_approx"]
        in_regime = etas < eta_o
        assert np.all(np.isfinite(low[in_regime])) and np.all(np.isnan(low[~in_regime]))
        assert np.all(np.isfinite(high[in_regime])) and np.all(np.isnan(high[~in_regime]))


def brute_force_definition(eta):
    """The oracle's grid and the objective on it, built the plain way."""
    count = int(round((BRUTE_HI - BRUTE_LO) / BRUTE_STEP)) + 1
    grid = BRUTE_LO + BRUTE_STEP * np.arange(count)
    return grid, objective_f(grid, eta)


def brute_force_etas():
    """-300..300 dB, the threshold and its float neighbours, and etas in
    (0, 0.5], where b = eta + (1 - x) changes sign inside the grid. These
    include each ``x - 1`` of a stretch of the grid, where ``b`` is exactly
    0 at a grid point, and the floats on either side of it."""
    eta_o = eta_threshold()
    grid, _ = brute_force_definition(1.0)
    edges = -(1.0 - grid[1:4001:40])
    return np.concatenate([
        eta_from_snr_db(np.linspace(-300.0, 300.0, 601)),
        [np.nextafter(eta_o, 0.0), eta_o, np.nextafter(eta_o, 1.0)],
        np.linspace(0.0, 0.5, 201)[1:],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
    ])


class TestBruteForceOracle:
    def test_bit_equal_to_its_definition(self):
        for eta in brute_force_etas():
            grid, values = brute_force_definition(eta)
            assert brute_force_optimal_x(eta) == grid[np.argmax(values)], f"eta={eta!r}"
            # Every grid value, not only the winner: a branch taken one grid
            # point early or late moves a value by a few ulps.
            got = oracles._grid_objective(float(eta))
            assert np.array_equal(got.view(np.int64), values.view(np.int64)), f"eta={eta!r}"

    def test_matches_exact_at_probe_points(self):
        for eta in (0.01, 0.1, 0.3):
            assert abs(brute_force_optimal_x(eta) - optimal_x_exact(eta).x_star) <= 1e-3

    def test_clamps_at_grid_floor_above_threshold(self):
        assert brute_force_optimal_x(2.0) == 1.0


class TestCsvOutput:
    def test_round_trip_format(self, tmp_path):
        res = run_loading_sweep(np.linspace(0.0, 10.0, 5))
        path = tmp_path / "loading.csv"
        write_csv(res, path)
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert comments[0] == "# experiment = loading"
        assert any(ln.startswith("# version = ") for ln in comments)
        header = lines[len(comments)]
        assert header.split(",")[0] == "snr_db"
        assert len(lines) == len(comments) + 1 + 5

    def test_byte_identical_reruns(self, tmp_path):
        grid = np.linspace(0.0, 20.0, 9)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_loading_sweep(grid), a)
        write_csv(run_loading_sweep(grid), b)
        assert a.read_bytes() == b.read_bytes()

    def test_cdf_csv_deterministic(self, tmp_path):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=4, seed=6)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_cdf_experiment(cfg), a)
        write_csv(run_cdf_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_echoes_config(self, tmp_path):
        cfg = SystemConfig.make(N=8, K=4, snr_db=10.0, trials=4, seed=6)
        path = tmp_path / "c.csv"
        write_csv(run_cdf_experiment(cfg), path)
        text = path.read_text()
        for needle in ("# n = 8", "# k = 4", "# seed = 6", "# trials = 4"):
            assert needle in text

    @pytest.mark.parametrize("col", [
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1e16, 1 / 3]),
        np.array([np.nan, -np.inf, -0.0, 1e-45, 3.4e38, 0.1], dtype=np.float32),
        np.array([1.1, -0.0, 1e308], dtype=np.longdouble) / 3,
        np.array([0, -1, 2**62, -2**63], dtype=np.int64),
        np.array([True, False]),
        np.full(5, 0.1 + 0.2),
        np.array([0.0, -0.0, 0.0, -0.0]),
        np.full(3, np.nan),
    ], ids=["float64", "float32", "longdouble", "int64", "bool", "constant", "signed-zeros",
            "all-nan"])
    def test_column_strings_match_per_value_format(self, col):
        assert _format_column(col) == [_format_value(v) for v in col]

    @pytest.mark.parametrize("name,columns,metadata", [
        ("cdf", {"a": [1.0]}, {"rho_grid": "0:1:2\nboom"}),
        ("cdf", {"a": [1.0]}, {"out": "x\r.csv"}),
        ("cdf", {"a": [1.0]}, {"two\nlines": 1}),
        ("cdf", {"a\r\nb": [1.0]}, {}),
        ("cd\nf", {"a": [1.0]}, {}),
    ], ids=["value-lf", "value-cr", "key", "column", "name"])
    def test_line_break_in_header_rejected_before_open(self, tmp_path, name, columns, metadata):
        path = tmp_path / "x.csv"
        res = ExperimentResult(name=name, columns=columns, metadata=metadata)
        with pytest.raises(ValueError, match="line break"):
            write_csv(res, path)
        assert not path.exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_streamed_bytes_match_whole_file_writer(self, tmp_path_factory, data):
        res = data.draw(csv_results())
        path = tmp_path_factory.mktemp("stream") / "s.csv"
        write_csv(res, path)
        assert path.read_bytes() == reference_csv(res)

    def test_write_peak_memory_is_one_block(self, tmp_path):
        # 200,000 rows of four CDF-like columns make a 12 MiB file. The
        # whole-file writer held every row's text, a traced peak of 91 MiB;
        # one block of 256 rows is a few hundred KiB at most.
        bound = 2 * 2**20
        rows = 200_000
        rng = np.random.default_rng(5)
        res = ExperimentResult(name="cdf", columns={
            "cdf_level": np.arange(1, rows + 1) / (rows + 1.0),
            "slnr": np.sort(rng.standard_normal(rows)),
            "sinr": np.sort(rng.standard_normal(rows)),
            "gamma_asymptotic": np.full(rows, 1 / 3),
        })
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(res, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10 * 2**20
        assert peak < bound, f"traced peak {peak / 2**20:.2f} MiB"

    def test_wall_clock_never_written(self, tmp_path):
        # Timing lives on the in-memory result only; writing it would break
        # byte-determinism.
        res = run_loading_sweep(np.linspace(0.0, 5.0, 3))
        assert res.wall_seconds > 0.0
        path = tmp_path / "d.csv"
        write_csv(res, path)
        assert "wall" not in path.read_text()


@pytest.mark.parametrize("kwargs,name", [
    (dict(N=0, alpha=0.75), "N"),
    (dict(N=8, alpha=0.01), "alpha"),
    (dict(N=8, alpha=0.75, trials_for_random_theta=0), "trials_for_random_theta"),
    (dict(N=8, alpha=0.75, rho_grid=[0.3, 1.5]), "rho_grid"),
    (dict(N=8, alpha=0.75, rho_grid=[np.nan]), "rho_grid"),
    # A scalar grid raised a TypeError; an empty one wrote a header-only CSV.
    (dict(N=8, alpha=0.75, rho_grid=0.5), "rho_grid"),
    (dict(N=8, alpha=0.75, rho_grid=[]), "rho_grid"),
])
def test_correlation_sweep_rejects_bad_arguments(kwargs, name):
    kwargs = {"snr_db": 20.0, "rho_grid": [0.3], **kwargs}
    with pytest.raises(ValueError, match=name):
        run_correlation_sweep(**kwargs)


def test_experiment_result_rejects_ragged_columns():
    with pytest.raises(ValueError):
        ExperimentResult(name="x", columns={"a": np.zeros(3), "b": np.zeros(2)})
