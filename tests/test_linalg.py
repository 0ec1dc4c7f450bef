import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mimoslnr
from mimoslnr import _blas, linalg
from mimoslnr.channel import SystemConfig
from mimoslnr.experiments import run_cdf_experiment
from mimoslnr.linalg import (
    EigConvergenceError,
    NotHermitianError,
    NotPsdError,
    psd_sqrt,
    shifted_gram_inverse,
)
from mimoslnr.oracles import rzf_precode, sinr_instantaneous, slnr_leave_one_out, slnr_ratio

rng = np.random.default_rng(1234)


def random_hermitian(n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def random_psd(n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A @ A.conj().T) / n


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(5)), np.eye(5), atol=1e-14)

    def test_diagonal_roots(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_exponential_2x2(self):
        # [[1, 1/2], [1/2, 1]] has eigenvalues 1 -+ 1/2 on (1, -+1) / sqrt(2).
        a, b = np.sqrt(1.5), np.sqrt(0.5)
        expected = 0.5 * np.array([[a + b, a - b], [a - b, a + b]])
        np.testing.assert_allclose(psd_sqrt(np.array([[1.0, 0.5], [0.5, 1.0]])), expected,
                                   atol=1e-14)

    def test_unsorted_diagonal_keeps_its_order(self):
        # eigh sorts eigenvalues ascending; the root must not inherit that order.
        np.testing.assert_allclose(psd_sqrt(np.diag([9.0, 1.0, 4.0])), np.diag([3.0, 1.0, 2.0]),
                                   atol=1e-14)

    def test_complex_hermitian_2x2(self):
        # B = [[0, i], [-i, 0]] is Hermitian with B @ B = I, so 2I + B has
        # eigenvalues 1 and 3 and root ((sqrt3 + 1) I + (sqrt3 - 1) B) / 2.
        B = np.array([[0.0, 1j], [-1j, 0.0]])
        expected = 0.5 * ((np.sqrt(3.0) + 1.0) * np.eye(2) + (np.sqrt(3.0) - 1.0) * B)
        np.testing.assert_allclose(psd_sqrt(2.0 * np.eye(2) + B), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 48])
    def test_reconstruction_and_hermitian_psd_root(self, n):
        R = random_psd(n)
        S = psd_sqrt(R)
        assert np.array_equal(S, S.conj().T)
        assert np.linalg.norm(S @ S - R) <= 1e-9 * np.linalg.norm(R)
        assert np.linalg.eigvalsh(S).min() >= -1e-9 * np.linalg.norm(S, 2)

    @pytest.mark.parametrize("n", [2, 7, 24])
    def test_trace_preservation(self, n):
        # S is Hermitian, so ||S||_F^2 = trace(S @ S) = trace(R).
        R = random_psd(n)
        S = psd_sqrt(R)
        assert abs(np.linalg.norm(S) ** 2 - np.trace(R).real) <= 1e-9 * np.linalg.norm(R)

    @pytest.mark.parametrize("c", [1e-50, 1e50])
    def test_homogeneous_under_scaling(self, c):
        # sqrt(c^2 R) = c sqrt(R): the checks and the clip are relative to ||R||.
        R = random_psd(6)
        np.testing.assert_allclose(psd_sqrt(c * c * R), c * psd_sqrt(R), rtol=1e-10,
                                   atol=1e-12 * c)

    def test_exponential_rho09_roundtrip(self):
        d = np.subtract.outer(np.arange(8), np.arange(8))
        R = 0.9 ** np.abs(d).astype(float)
        S = psd_sqrt(R)
        assert np.linalg.norm(S @ S - R) <= 1e-9 * np.linalg.norm(R)

    def test_roundtrip_property_1000_random(self):
        # Squaring the root must reproduce the input across sizes up to 64.
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            R = random_psd(n)
            S = psd_sqrt(R)
            err = np.linalg.norm(S @ S - R) / np.linalg.norm(R)
            worst = max(worst, err)
        assert worst <= 1e-9, f"worst relative reconstruction error {worst:.2e}"

    def test_root_of_nearly_hermitian_input_is_exactly_hermitian(self):
        # The input is symmetrized exactly before eigh, and so is the root.
        A = random_psd(6) + 1e-14 * rng.standard_normal((6, 6))
        S = psd_sqrt(A)
        assert np.array_equal(S, S.conj().T)
        assert np.all(S.diagonal().imag == 0.0)
        assert np.linalg.norm(S @ S - A) <= 1e-12 * np.linalg.norm(A)

    def test_clips_tiny_negative_eigenvalue(self):
        S = psd_sqrt(np.diag([1.0, -1e-12]))
        np.testing.assert_allclose(S, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("A,error,match", [
        (np.zeros((2, 3)), ValueError, "square"),
        (np.zeros(4), ValueError, "square"),
        (np.zeros((0, 0)), ValueError, "dimension >= 1"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError, "finite"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError, "finite"),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), NotHermitianError, "not Hermitian"),
    ], ids=["non-square", "vector", "empty", "inf", "nan", "non-hermitian"])
    def test_rejects_bad_input(self, A, error, match):
        with pytest.raises(error, match=match):
            psd_sqrt(A)

    def test_eigh_failure_is_eig_convergence_error(self, monkeypatch):
        def fail(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigConvergenceError, match="3x3") as excinfo:
            psd_sqrt(np.eye(3))
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)


class TestShiftedGramInverse:
    @pytest.mark.parametrize("n,k", [(1, 1), (4, 8), (8, 8), (8, 4)])
    def test_inverts_the_shifted_gram(self, n, k):
        # The Gram of H's shorter side: H* H when k <= n, ties included, else H H*.
        H = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        G, W_inv = shifted_gram_inverse(H, 0.37)
        assert np.array_equal(G, G.conj().T) and np.array_equal(W_inv, W_inv.conj().T)
        gram = H.conj().T @ H if k <= n else H @ H.conj().T
        m = min(n, k)
        assert G.shape == (m, m)
        np.testing.assert_allclose(G, gram, rtol=1e-14, atol=1e-14)
        resid = (G + 0.37 * np.eye(m)) @ W_inv - np.eye(m)
        assert np.linalg.norm(resid) <= 1e-12 * m

    def test_matches_the_solve(self):
        # Against the oracle's LU solve of the N x N system: a tall H's
        # precoder by push-through, H (H* H + beta I)^{-1}, a wide one's directly.
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        _, W_inv = shifted_gram_inverse(H, 0.5)
        np.testing.assert_allclose(H @ W_inv, rzf_precode(H, 0.5), rtol=1e-12)
        H = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        _, W_inv = shifted_gram_inverse(H, 0.5)
        np.testing.assert_allclose(W_inv @ H, rzf_precode(H, 0.5), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(7, 3), (4, 9, 5)], ids=["matrix", "stack"])
    def test_tall_channel_and_its_wide_adjoint_agree_bit_for_bit(self, shape):
        # Both take the same product of the same layouts: a tall H's k x k
        # Gram H* H is the wide adjoint's H H*, with the same bits.
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        G, W_inv = shifted_gram_inverse(H, 0.21)
        G_adj, W_inv_adj = shifted_gram_inverse(H.conj().swapaxes(-1, -2), 0.21)
        assert G.shape == G_adj.shape == shape[:-2] + (shape[-1], shape[-1])
        assert np.array_equal(G, G_adj) and np.array_equal(W_inv, W_inv_adj)

    def test_empty_system(self):
        G, W_inv = shifted_gram_inverse(np.zeros((0, 2)), 1.0)
        assert G.shape == W_inv.shape == (0, 0)

    def test_singular_gram_is_linalg_error(self):
        H = np.ones((2, 3), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            shifted_gram_inverse(H, 1e-300)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4)], ids=["4x2", "2x4"])
    def test_overflowing_gram_is_linalg_error(self, shape):
        # Finite entries whose Gram overflows: the inverse was NaN, after an overflow warning.
        with pytest.raises(np.linalg.LinAlgError, match="shifted Gram matrix is not finite"):
            shifted_gram_inverse(np.full(shape, 1e160 + 0j), 0.1)

    def test_stack_names_the_failing_realization(self):
        H = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
        H[1] = 1.0
        with pytest.raises(np.linalg.LinAlgError,
                           match="^realization 1: shifted Gram matrix is not positive definite"):
            shifted_gram_inverse(H, 1e-300)

    def test_empty_stack(self):
        G, W_inv = shifted_gram_inverse(np.zeros((2, 0, 3)), 1.0)
        assert G.shape == W_inv.shape == (2, 0, 0)

    def test_rejects_more_than_three_axes(self):
        with pytest.raises(ValueError, match="H must be a matrix or a stack of them"):
            shifted_gram_inverse(np.ones((2, 2, 3, 2)), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        H = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="beta"):
            shifted_gram_inverse(H, bad)
        H[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            shifted_gram_inverse(H, 1.0)


class TestCholeskyPair:
    def test_fast_path_binds_the_registered_extension(self):
        linalg._bind("_flapack")  # LAPACK loads at its first use; make sure it has
        flapack = sys.modules["scipy.linalg._flapack"]
        for name in linalg.LAPACK_ROUTINES:
            assert getattr(linalg, name) is getattr(flapack, name), name

    def test_fallback_imports_scipy_linalg_lapack(self, monkeypatch):
        from scipy.linalg import lapack

        calls = []

        def missing(name):
            calls.append(name)
            raise ImportError("no extension file")

        monkeypatch.setattr(linalg, "_extension_path", missing)
        module = linalg._load_extension("_flapack")
        toeplitz = linalg._load_extension("_solve_toeplitz")
        assert calls == ["_flapack", "_solve_toeplitz"]
        for name in linalg.LAPACK_ROUTINES:
            assert getattr(module, name) is getattr(lapack, name), name
        assert toeplitz is sys.modules["scipy.linalg._solve_toeplitz"]

        H = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        A, b = rng.standard_normal((12, 4)), rng.standard_normal(12)
        t = np.exp(-np.arange(12.0)) * np.exp(0.4j * np.arange(12))

        def outputs():
            return (
                *shifted_gram_inverse(H, 0.3), *linalg._toeplitz_predictor(t, "M"),
                linalg._kms_eigenvalues(9, 0.7), linalg._least_squares(12, 5)(A, b),
            )

        fast = outputs()
        for name in linalg.LAPACK_ROUTINES:
            monkeypatch.setattr(linalg, name, getattr(module, name))
        monkeypatch.setattr(linalg, "levinson", toeplitz.levinson)
        for got, want in zip(outputs(), fast):
            np.testing.assert_array_equal(got, want)


def test_eig_convergence_error_is_runtime_error():
    assert issubclass(EigConvergenceError, RuntimeError)


class TestOneBlasThread:
    """Library kernels run on one BLAS thread; the caller's setting comes back."""

    @pytest.fixture
    def pools(self, monkeypatch):
        linalg._bind("_flapack")  # so the list holds scipy's pool, which the load maps
        found = _blas.pools()
        if not found:
            pytest.skip("no OpenBLAS loaded")
        saved = [get() for get, _ in found]
        for _, set_ in found:
            set_(2)
        seen = []

        # The Cholesky factorization of shifted_gram_inverse.
        zpotrf = linalg.zpotrf

        def spied(*args, **kwargs):
            seen.append(self.threads(found))
            return zpotrf(*args, **kwargs)

        monkeypatch.setattr(linalg, "zpotrf", spied)
        yield found, seen
        for (_, set_), n in zip(found, saved):
            set_(n)

    @staticmethod
    def threads(found):
        return [get() for get, _ in found]

    def test_one_thread_inside_and_restored_after(self, pools):
        found, seen = pools
        H = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        shifted_gram_inverse(H, 1.0)
        assert seen == [[1] * len(found)]
        assert self.threads(found) == [2] * len(found)

    def test_restored_after_an_error(self, pools):
        found, seen = pools

        class Probe:
            """Non-finite H that records the thread counts when the library reads it."""

            def __array__(self, dtype=None, copy=None):
                seen.append(TestOneBlasThread.threads(found))
                return np.full((3, 2), np.nan, dtype=dtype)

        with pytest.raises(ValueError, match="finite"):
            shifted_gram_inverse(Probe(), 1.0)
        assert seen == [[1] * len(found)]
        assert self.threads(found) == [2] * len(found)

    @pytest.mark.parametrize("entry", [sinr_instantaneous, slnr_ratio])
    def test_standalone_product_on_one_thread(self, pools, entry):
        # No factorization runs here: the channel records the counts when the library reads it.
        found, seen = pools
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))

        class Probe:
            def __array__(self, dtype=None, copy=None):
                seen.append(TestOneBlasThread.threads(found))
                return H.astype(dtype)

        p = np.ones(3)
        np.testing.assert_array_equal(entry(Probe(), H, p, 0.1), entry(H, H, p, 0.1))
        assert seen == [[1] * len(found)]
        assert self.threads(found) == [2] * len(found)

    @pytest.mark.parametrize("entry", [rzf_precode, slnr_leave_one_out])
    def test_oracle_solve_on_one_thread(self, pools, entry):
        # numpy's LU solve runs on numpy's pool, which is set to one thread too.
        found, seen = pools
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))

        class Probe:
            def __array__(self, dtype=None, copy=None):
                seen.append(TestOneBlasThread.threads(found))
                return H if dtype is None else H.astype(dtype)

        np.testing.assert_array_equal(entry(Probe(), 0.5), entry(H, 0.5))
        assert seen and seen == [[1] * len(found)] * len(seen)
        assert self.threads(found) == [2] * len(found)

    def test_nested_call_restores_once(self, pools):
        # run_cdf_experiment -> compute_metrics -> shifted_gram_inverse: an inner
        # call that restored early would show 2 threads in a later trial.
        found, seen = pools
        run_cdf_experiment(SystemConfig.make(N=8, K=4, snr_db=10.0, trials=3, seed=5))
        assert seen == [[1] * len(found)] * 3
        assert self.threads(found) == [2] * len(found)

    def test_concurrent_calls(self, pools):
        found, seen = pools
        H = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        workers, calls = (os.cpu_count() or 1) + 2, 50  # more threads than cores
        barrier = threading.Barrier(workers)
        errors = []

        def work():
            try:
                barrier.wait(timeout=10)
                for _ in range(calls):
                    shifted_gram_inverse(H, 1.0)
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen == [[1] * len(found)] * (workers * calls)
        assert self.threads(found) == [2] * len(found)


# A fresh process whose first LAPACK call is raced by more threads than
# cores: every one of them must find the pool that the load maps on one thread.
FIRST_CALL_CHILD = """
import json, sys, threading, types
import numpy as np
from mimoslnr import _blas, linalg
from mimoslnr.linalg import shifted_gram_inverse

loads, seen = [], []
load = linalg._load_extension

def spied_load(name):
    module = load(name)
    loads.append(module)

    def zpotrf(*args, **kwargs):
        seen.append([get() for get, _ in _blas.pools()])
        return module.zpotrf(*args, **kwargs)

    return types.SimpleNamespace(**dict(
        {name: getattr(module, name) for name in linalg.LAPACK_ROUTINES}, zpotrf=zpotrf))

linalg._load_extension = spied_load
H = np.random.default_rng(0).standard_normal((16, 8)) * (1 + 1j)
barrier = threading.Barrier(WORKERS)
errors = []

def work():
    try:
        barrier.wait(timeout=10)
        shifted_gram_inverse(H, 1.0)
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work) for _ in range(WORKERS)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({
    "alive": sum(t.is_alive() for t in threads), "errors": errors, "loads": len(loads),
    "seen": seen, "after": [get() for get, _ in _blas.pools()],
}))
"""


def test_first_lapack_call_runs_on_one_thread():
    # Loading LAPACK maps scipy's OpenBLAS inside the first decorated call; a
    # pool left at its own count there would round that call differently.
    workers = (os.cpu_count() or 1) + 2
    src = os.path.dirname(os.path.dirname(mimoslnr.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_CALL_CHILD.replace("WORKERS", str(workers))],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["after"]:
        pytest.skip("no OpenBLAS loaded")
    assert out["alive"] == 0 and out["errors"] == []
    assert out["loads"] == 1
    assert out["seen"] == [[1] * len(out["after"])] * workers
    assert out["after"] == [2] * len(out["after"])
