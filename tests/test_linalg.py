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
    herm_eig,
    hermitian_part,
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


class TestHermEig:
    def test_identity(self):
        w, U = herm_eig(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))
        np.testing.assert_allclose(U.conj().T @ U, np.eye(4), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = herm_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])

    def test_exponential_2x2(self):
        # Characteristic polynomial of [[1, 1/2], [1/2, 1]] gives 1 -+ 1/2.
        w, _ = herm_eig(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(w, [0.5, 1.5], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 48])
    def test_reconstruction_and_unitarity(self, n):
        A = random_hermitian(n)
        w, U = herm_eig(A)
        recon = (U * w) @ U.conj().T
        assert np.linalg.norm(recon - A) <= 1e-9 * np.linalg.norm(A)
        assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("n", [2, 7, 24])
    def test_trace_preservation(self, n):
        A = random_hermitian(n)
        w, _ = herm_eig(A)
        assert abs(np.sum(w) - np.trace(A).real) <= 1e-9 * np.linalg.norm(A)

    def test_rejects_non_hermitian(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotHermitianError):
            herm_eig(A)

    def test_rejects_non_finite(self):
        A = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            herm_eig(A)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            herm_eig(np.zeros((2, 3)))


class TestHermitianPart:
    def test_symmetrizes_exactly(self):
        A = random_hermitian(6) + 1e-14 * rng.standard_normal((6, 6))
        H = hermitian_part(A)
        assert np.array_equal(H, H.conj().T)
        assert np.all(H.diagonal().imag == 0.0)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(5)), np.eye(5), atol=1e-14)

    def test_diagonal_roots(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

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

    def test_clips_tiny_negative_eigenvalue(self):
        S = psd_sqrt(np.diag([1.0, -1e-12]))
        np.testing.assert_allclose(S, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestShiftedGramInverse:
    @pytest.mark.parametrize("n,k", [(1, 1), (4, 8), (8, 8), (8, 4)])
    def test_inverts_the_shifted_gram(self, n, k):
        H = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        G, W_inv = shifted_gram_inverse(H, 0.37)
        assert np.array_equal(G, G.conj().T) and np.array_equal(W_inv, W_inv.conj().T)
        np.testing.assert_allclose(G, H @ H.conj().T, rtol=1e-14, atol=1e-14)
        resid = (G + 0.37 * np.eye(n)) @ W_inv - np.eye(n)
        assert np.linalg.norm(resid) <= 1e-12 * n

    def test_matches_the_solve(self):
        # Against the oracle's LU solve of the same N x N system.
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        _, W_inv = shifted_gram_inverse(H, 0.5)
        np.testing.assert_allclose(W_inv @ H, rzf_precode(H, 0.5), rtol=1e-12)

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
        linalg._bind_lapack()  # LAPACK loads at its first use; make sure it has
        flapack = sys.modules["scipy.linalg._flapack"]
        for name in linalg.LAPACK_ROUTINES:
            assert getattr(linalg, name) is getattr(flapack, name), name

    def test_fallback_imports_scipy_linalg_lapack(self, monkeypatch):
        from scipy.linalg import lapack

        calls = []

        def missing():
            calls.append(1)
            raise ImportError("no extension file")

        monkeypatch.setattr(linalg, "_flapack_path", missing)
        module = linalg._load_lapack()
        assert calls == [1]
        assert module is lapack

        H = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        W = H @ H.conj().T + 0.3 * np.eye(12)
        B = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        A, b = rng.standard_normal((12, 4)), rng.standard_normal(12)

        def outputs():
            return (
                linalg._cholesky_solve(W, B, "W"), *shifted_gram_inverse(H, 0.3),
                linalg._kms_eigenvalues(9, 0.7), linalg._least_squares(12, 5)(A, b),
            )

        fast = outputs()
        for name in linalg.LAPACK_ROUTINES:
            monkeypatch.setattr(linalg, name, getattr(module, name))
        for got, want in zip(outputs(), fast):
            np.testing.assert_array_equal(got, want)


def test_eig_convergence_error_is_runtime_error():
    assert issubclass(EigConvergenceError, RuntimeError)


class TestOneBlasThread:
    """Library kernels run on one BLAS thread; the caller's setting comes back."""

    @pytest.fixture
    def pools(self, monkeypatch):
        linalg._bind_lapack()  # so the list holds scipy's pool, which the load maps
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
load = linalg._load_lapack

def spied_load():
    module = load()
    loads.append(module)

    def zpotrf(*args, **kwargs):
        seen.append([get() for get, _ in _blas.pools()])
        return module.zpotrf(*args, **kwargs)

    return types.SimpleNamespace(**dict(
        {name: getattr(module, name) for name in linalg.LAPACK_ROUTINES}, zpotrf=zpotrf))

linalg._load_lapack = spied_load
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
