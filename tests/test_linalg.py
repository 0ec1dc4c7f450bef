import os
import sys
import threading

import numpy as np
import pytest

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
    shifted_gram_solve,
)
from mimoslnr.oracles import slnr_ratio
from mimoslnr.precoding import sinr_instantaneous

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


class TestShiftedGramSolve:
    def test_zero_channel_is_diagonal_system(self):
        H = np.zeros((4, 2))
        X = shifted_gram_solve(H, 2.0, np.eye(4))
        np.testing.assert_allclose(X, 0.5 * np.eye(4), atol=1e-14)

    def test_scalar_case(self):
        X = shifted_gram_solve(np.array([[1.0]]), 1.0, np.array([[1.0]]))
        np.testing.assert_allclose(X, [[0.5]], atol=1e-15)

    @pytest.mark.parametrize("n,k,m", [(8, 4, 8), (8, 4, 1), (16, 16, 3), (5, 9, 5)])
    def test_residual(self, n, k, m):
        H = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        beta = 0.37
        X = shifted_gram_solve(H, beta, B)
        resid = (H @ (H.conj().T @ X)) + beta * X - B
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(B)

    def test_vector_rhs(self):
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = shifted_gram_solve(H, 1.0, b)
        assert x.shape == (6,)
        resid = H @ (H.conj().T @ x) + x - b
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(b)

    @pytest.mark.parametrize("B,shape", [(np.zeros((0, 3)), (0, 3)), (np.zeros(0), (0,))])
    def test_empty_system(self, B, shape):
        assert shifted_gram_solve(np.zeros((0, 2)), 1.0, B).shape == shape

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            shifted_gram_solve(np.zeros((4, 2)), 1.0, np.eye(3))

    def test_nonpositive_beta(self):
        with pytest.raises(ValueError):
            shifted_gram_solve(np.zeros((2, 2)), 0.0, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        H = np.ones((3, 2), dtype=complex)
        H_bad = H.copy()
        H_bad[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            shifted_gram_solve(H_bad, 1.0, np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            shifted_gram_solve(H, 1.0, H_bad)
        with pytest.raises(ValueError, match="beta"):
            shifted_gram_solve(H, bad, np.eye(3))


def test_eig_convergence_error_is_runtime_error():
    assert issubclass(EigConvergenceError, RuntimeError)


class TestOneBlasThread:
    """Library kernels run on one BLAS thread; the caller's setting comes back."""

    @pytest.fixture
    def pools(self, monkeypatch):
        found = _blas.pools()
        if not found:
            pytest.skip("no OpenBLAS loaded")
        saved = [get() for get, _ in found]
        for _, set_ in found:
            set_(2)
        seen = []
        real_zpotrf = linalg.zpotrf

        def spy(*args, **kwargs):
            seen.append(self.threads(found))
            return real_zpotrf(*args, **kwargs)

        monkeypatch.setattr(linalg, "zpotrf", spy)
        yield found, seen
        for (_, set_), n in zip(found, saved):
            set_(n)

    @staticmethod
    def threads(found):
        return [get() for get, _ in found]

    def test_one_thread_inside_and_restored_after(self, pools):
        found, seen = pools
        H = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        shifted_gram_solve(H, 1.0, H)
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
            shifted_gram_solve(Probe(), 1.0, np.eye(3))
        assert seen == [[1] * len(found)]
        assert self.threads(found) == [2] * len(found)

    @pytest.mark.parametrize("entry", [sinr_instantaneous, slnr_ratio])
    def test_standalone_product_on_one_thread(self, pools, entry):
        # No zpotrf runs here: the channel records the counts when the library reads it.
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

    def test_nested_call_restores_once(self, pools):
        # run_cdf_experiment -> compute_metrics -> shifted_gram_solve: an inner
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
                    shifted_gram_solve(H, 1.0, H)
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
