import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from npdg.errors import NonFiniteMatrixError
from npdg.linalg import (
    _TAYLOR_DEGREE,
    _TAYLOR_THETA,
    _expm_core,
    frobenius_norm,
    matrix_exponential,
    solve_lyapunov,
    spectral_norm,
)

from conftest import random_hurwitz

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def small_matrices():
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite_floats))


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm([[-3.5]]) == 3.5

    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -4.0, 2.0])) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_ones_orthogonal_start(self):
        # top singular vector is orthogonal to the all-ones start vector
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert spectral_norm(m) == pytest.approx(2.0, abs=1e-10)

    def test_against_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
            expected = np.linalg.norm(m, 2)
            assert spectral_norm(m) == pytest.approx(expected, abs=1e-10 * (1 + expected))

    def test_clustered_spectrum(self):
        # nearly equal singular values are the slow case for plain power steps
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        m = q @ np.diag([1.0, 1.0 - 1e-9, 0.9, 0.5, 0.1, 0.01]) @ q.T
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-9)

    def test_never_exceeds_frobenius(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            m = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            assert spectral_norm(m) <= frobenius_norm(m)
        # vector shapes are where a raw SVD overshoots by an ulp
        for k in range(1, 9):
            for shape in ((1, k), (k, 1)):
                for _ in range(100):
                    m = rng.normal(size=shape)
                    assert spectral_norm(m) <= frobenius_norm(m)

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteMatrixError):
            spectral_norm([[np.nan]])

    @settings(max_examples=40, deadline=None)
    @given(small_matrices())
    def test_frobenius_dominates(self, m):
        assert spectral_norm(m) <= frobenius_norm(m) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(small_matrices(), st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneous(self, m, c):
        s = spectral_norm(m)
        assert spectral_norm(c * m) == pytest.approx(c * s, rel=1e-9, abs=1e-9)


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        e = matrix_exponential(np.diag([-1.0, 2.0]))
        assert np.allclose(e, np.diag([np.exp(-1.0), np.exp(2.0)]), rtol=1e-13)

    def test_nilpotent(self):
        e = matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(e, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.normal(size=(n, n)) * rng.uniform(0.05, 8.0)
            ours = matrix_exponential(m)
            ref = sla.expm(m)
            assert np.allclose(ours, ref, rtol=1e-11, atol=1e-11 * np.max(np.abs(ref)))

    def test_large_norm(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        m *= 50.0 / spectral_norm(m)
        ref = sla.expm(m)
        assert np.allclose(matrix_exponential(m), ref, rtol=1e-10)

    def test_semigroup(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = rng.normal(size=(n, n))
            m *= rng.uniform(0.1, 5.0) / max(spectral_norm(m), 1e-12)
            s, t = rng.uniform(0.1, 1.0, size=2)
            whole = matrix_exponential(m * (s + t))
            split = matrix_exponential(m * s) @ matrix_exponential(m * t)
            assert np.max(np.abs(whole - split)) <= 1e-10 * max(1.0, np.max(np.abs(whole)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteMatrixError):
            matrix_exponential(np.array([[np.inf]]))


def _nilpotent_exponential(m):
    """I + N + N^2/2 + N^3/6 in exact rational arithmetic, rounded once: e^N when N^4 = 0."""
    n = m.shape[0]
    f = [[Fraction(x) for x in row] for row in m.tolist()]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    f2 = mul(f, f)
    f3 = mul(f2, f)
    return np.array([[float((i == j) + f[i][j] + f2[i][j] / 2 + f3[i][j] / 6) for j in range(n)] for i in range(n)])


class TestTaylorKernel:
    """The degree-16 Taylor / Paterson-Stockmeyer kernel behind matrix_exponential."""

    @staticmethod
    def _matrices(n):
        rng = np.random.default_rng(60 + n)
        yield "dense", rng.normal(size=(n, n))
        yield "triangular", np.triu(rng.normal(size=(n, n))) + np.triu(np.full((n, n), 3.0), 1)  # non-normal
        yield "jordan", -np.eye(n) + np.eye(n, k=1)

    # every depth switch theta * 2^j for j < 7, approached from both sides
    NORMS = [1e-3, 1e-1, 1e2] + [_TAYLOR_THETA * 2.0**j * (1.0 + side) for j in range(7) for side in (-1e-9, 1e-9)]

    @pytest.mark.parametrize("n", [2, 6, 40])
    def test_against_scipy_across_squaring_depths(self, n):
        for kind, m in self._matrices(n):
            for norm in self.NORMS:
                a = m * (norm / spectral_norm(m))
                ref = sla.expm(a)
                err = np.linalg.norm(matrix_exponential(a) - ref, 2) / np.linalg.norm(ref, 2)
                assert err <= 5e-14 * max(1.0, norm), (kind, norm, err)

    def test_truncation_bound_holds_at_theta(self):
        # ||e^X - T_m(X)|| <= sum_{j>m} ||X||^j / j! <= x^(m+1)/(m+1)! * (m+2)/(m+2-x) at x = ||X|| = theta_m
        m = _TAYLOR_DEGREE
        x = Fraction(_TAYLOR_THETA)
        u = Fraction(np.finfo(float).eps) / 2
        first = x ** (m + 1) / math.factorial(m + 1)
        stop = m + 40
        tail = sum(x**j / math.factorial(j) for j in range(m + 1, stop)) + 2 * x**stop / math.factorial(stop)
        bound = first * (m + 2) / (m + 2 - x)
        assert tail <= bound <= Fraction(105, 100) * u
        assert abs(first / u - 1) < 1e-12  # theta_m is where the first neglected term reaches u

    def test_scalar_at_theta(self):
        for x in (_TAYLOR_THETA, -_TAYLOR_THETA, 2.0 * _TAYLOR_THETA):
            assert matrix_exponential([[x]])[0, 0] == pytest.approx(math.exp(x), rel=3 * np.finfo(float).eps, abs=0.0)

    @pytest.mark.parametrize("scale", [0.5, 4.0, 64.0])
    def test_dyadic_nilpotent_is_exact(self, scale):
        m = scale * np.eye(4, k=1)  # index 4, ||m|| = scale: no squaring, then 3 and 7 squarings
        assert np.array_equal(matrix_exponential(m), _nilpotent_exponential(m))

    @pytest.mark.parametrize("n", [3, 4])
    def test_nilpotent_has_no_truncation_error(self, n):
        m = np.triu(np.random.default_rng(n).normal(size=(n, n)), 1)  # index <= 4
        for norm in (0.1, 2.0, 50.0):
            a = m * (norm / spectral_norm(m))
            exact = _nilpotent_exponential(a)
            assert np.allclose(matrix_exponential(a), exact, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_stack_uses_no_solve_or_inverse(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exponential kernel must not solve or invert")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        rng = np.random.default_rng(9)
        m = rng.normal(size=(5, 5))
        t = np.linspace(0.1, 20.0, 30)
        stack = _expm_core(m * t[:, None, None], t * spectral_norm(m))
        for k in (0, 17, 29):
            assert np.array_equal(stack[k], matrix_exponential(m * t[k]))


class TestLyapunov:
    def test_residual_small(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            f = random_hurwitz(rng, n)
            w = rng.normal(size=(n, n))
            w = w @ w.T
            x = solve_lyapunov(f, w)
            res = f.T @ x + x @ f + w
            assert np.max(np.abs(res)) <= 1e-9 * (1 + np.max(np.abs(w)))
            assert np.allclose(x, x.T)

    def test_against_scipy(self):
        rng = np.random.default_rng(9)
        f = random_hurwitz(rng, 5)
        w = rng.normal(size=(5, 5))
        w = 0.5 * (w + w.T)
        ours = solve_lyapunov(f, w)
        ref = sla.solve_continuous_lyapunov(f.T, -w)
        assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9)

    def test_stack_equals_single_solves(self):
        rng = np.random.default_rng(4)
        n = 7
        f = random_hurwitz(rng, n)
        w = rng.normal(size=(3, n, n))
        w = w + np.swapaxes(w, 1, 2)
        stacked = solve_lyapunov(f, w)
        assert stacked.shape == (3, n, n)
        for wk, xk in zip(w, stacked):
            single = solve_lyapunov(f, wk)
            assert np.max(np.abs(xk - single)) <= 1e-13 * np.max(np.abs(single))

    def test_anti_stable_against_scipy(self):
        # the shifted equation (A + beta I) Z + Z (A + beta I)' = 2 B B' of the stabilizing gain
        rng = np.random.default_rng(12)
        for n in (1, 4, 12):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, 2))
            f = (a + (frobenius_norm(a) + 0.5) * np.eye(n)).T
            w = -2.0 * (b @ b.T)
            ours = solve_lyapunov(f, w, stable=False)
            ref = sla.solve_continuous_lyapunov(f.T, -w)
            assert np.max(np.abs(ours - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_n60_against_scipy(self):
        rng = np.random.default_rng(60)
        f = random_hurwitz(rng, 60)
        w = rng.normal(size=(60, 60))
        w = w @ w.T
        ours = solve_lyapunov(f, w)
        ref = sla.solve_continuous_lyapunov(f.T, -w)
        assert np.max(np.abs(ours - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 6, 20])
    @pytest.mark.parametrize("abscissa", [1e-4, 1e-6, 1e-8])
    def test_near_imaginary_axis(self, n, abscissa):
        rng = np.random.default_rng(n)
        f = random_hurwitz(rng, n, margin=abscissa)
        w = rng.normal(size=(n, n))
        w = w @ w.T
        x = solve_lyapunov(f, w)
        res = f.T @ x + x @ f + w
        assert spectral_norm(res) <= 1e-10 * spectral_norm(f) * spectral_norm(x)

    def test_not_hurwitz_raises(self):
        f = np.diag([-1.0, 0.5])
        with pytest.raises(np.linalg.LinAlgError):
            solve_lyapunov(f, np.eye(2))

    def test_memory_is_quadratic(self):
        rng = np.random.default_rng(61)
        f = random_hurwitz(rng, 60)
        w = rng.normal(size=(2, 60, 60))
        tracemalloc.start()
        try:
            solve_lyapunov(f, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6  # an n^2 x n^2 Kronecker matrix alone is 104 MB

    @pytest.mark.parametrize(
        "f_shape, w_shape",
        [((2, 3), (2, 2)), ((3,), (3, 3)), ((3, 3), (2, 2)), ((3, 3), (2, 3, 2)), ((3, 3), (3,)), ((3, 3), (1, 1, 3, 3))],
    )
    def test_rejects_bad_shapes(self, f_shape, w_shape):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.ones(f_shape), np.ones(w_shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        f = -np.eye(2)
        w = np.eye(2)
        with pytest.raises(NonFiniteMatrixError):
            solve_lyapunov(np.where(f == 0.0, bad, f), w)
        with pytest.raises(NonFiniteMatrixError):
            solve_lyapunov(f, np.full((2, 2, 2), bad))
