"""Eigensolver and matrix-helper tests, cross-checked against numpy.linalg."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from it2mpc.linalg import (
    EigResult,
    InvalidMatrixError,
    SingularBlockError,
    default_tol,
    is_nsd,
    is_psd,
    max_eig,
    min_eig,
    quad_form,
    schur_reduce,
    singular,
    sym_eig,
    sym_matrix,
)
from it2mpc.lmis import FixedParams


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return sym_matrix(a + a.T)


def _hex(values) -> list:
    return [float(v).hex() for v in values]


class TestQuadForm:
    """quad_form against the expressions it replaces, compared as float
    hex: every certificate value, stage cost and containment floor goes
    through it."""

    @staticmethod
    def draws(n, count, seed):
        rng = np.random.default_rng(seed)
        for k in range(count):
            scale = 10.0 ** rng.integers(-3, 4)
            m = rng.standard_normal((n, n)) * scale
            yield rng.standard_normal(n), (m + m.T if k % 2 else m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_vector_equals_the_products(self, n):
        for x, m in self.draws(n, 300, n):
            got = quad_form(x, m)
            assert type(got) is float
            assert got.hex() == float(x @ m @ x).hex()
            assert quad_form(x).hex() == float(x @ x).hex()

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
    def test_stacked_rows_equal_row_calls(self, n):
        draws = list(self.draws(n, 40, 100 + n))
        xs = np.array([x for x, _ in draws])
        m = draws[0][1]
        assert _hex(quad_form(xs, m)) == _hex(quad_form(x, m) for x in xs)
        assert _hex(quad_form(xs)) == _hex(quad_form(x) for x in xs)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
    def test_matrix_stack_equals_step_calls(self, n):
        draws = list(self.draws(n, 40, 200 + n))
        xs = np.array([x for x, _ in draws])
        ms = np.array([m for _, m in draws])
        assert _hex(quad_form(xs, ms)) == _hex(
            quad_form(x, m) for x, m in draws)
        xi = np.linspace(0.5, 4.0, len(draws))
        scaled = ms[0] / xi[:, None, None]        # as the loop's V is formed
        assert _hex(quad_form(xs, scaled)) == _hex(
            quad_form(x, ms[0] / s) for x, s in zip(xs, xi))

    @pytest.mark.parametrize("n", (1, 3))
    def test_empty_stack(self, n):
        for m in (None, np.eye(n), np.empty((0, n, n))):
            got = quad_form(np.empty((0, n)), m)
            assert isinstance(got, np.ndarray)
            assert got.shape == (0,) and got.dtype == float


class TestSymMatrix:
    def test_mirrors_upper_triangle(self):
        a = sym_matrix([[1.0, 2.0], [99.0, 3.0]])
        assert_allclose(a, [[1.0, 2.0], [2.0, 3.0]])
        assert a[1, 0] == a[0, 1]

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrixError):
            sym_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrixError):
            sym_matrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_mirrors_each_matrix_of_a_stack(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((4, 3, 3))
        got = sym_matrix(stack)
        assert got.shape == stack.shape
        for a, b in zip(got, stack):
            np.testing.assert_array_equal(a, sym_matrix(b))

    def test_rejects_non_square_stack(self):
        with pytest.raises(InvalidMatrixError):
            sym_matrix(np.zeros((4, 2, 3)))

    def test_rejects_non_finite_stack(self):
        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = np.inf
        with pytest.raises(InvalidMatrixError):
            sym_matrix(stack)

    def test_rejects_vector(self):
        with pytest.raises(InvalidMatrixError):
            sym_matrix([1.0, 2.0])


class TestSymEig:
    def test_diagonal_matrix(self):
        res = sym_eig([[2.0, 0.0], [0.0, 1.0]])
        assert_allclose(res.values, [1.0, 2.0], atol=1e-12)

    def test_exchange_matrix(self):
        res = sym_eig([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(res.values, [-1.0, 1.0], atol=1e-12)
        assert_allclose(res.vectors.T @ res.vectors, np.eye(2), atol=1e-12)

    def test_one_by_one(self):
        res = sym_eig([[-3.5]])
        assert_allclose(res.values, [-3.5])
        assert_allclose(res.vectors, [[1.0]])

    def test_hilbert_3x3_positive_definite(self):
        h = sym_matrix([[1 / (i + j + 1) for j in range(3)] for i in range(3)])
        lo = min_eig(h)
        assert lo > 0
        assert_allclose(lo, np.linalg.eigvalsh(h)[0], rtol=1e-9)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8, 13, 20):
            for _ in range(10):
                a = random_symmetric(rng, n, scale=10.0)
                res = sym_eig(a)
                assert_allclose(res.values, np.linalg.eigvalsh(a),
                                rtol=1e-9, atol=1e-9 * max(1.0, np.abs(a).max()))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 9, 16, 20):
            a = random_symmetric(rng, n, scale=3.0)
            w, v = sym_eig(a)
            scale = max(1.0, float(np.abs(a).max()))
            assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-8 * scale)
            assert_allclose(v.T @ v, np.eye(n), atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 17))
            a = random_symmetric(rng, n, scale=float(rng.uniform(0.01, 100)))
            w, v = sym_eig(a)
            resid = np.abs(a @ v - v * w).max()
            assert resid <= 1e-9 * max(1.0, float(np.abs(a).max()))

    def test_ascending_order(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 12)
        w = sym_eig(a).values
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("solver", [sym_eig, min_eig, max_eig],
                             ids=lambda f: f.__name__)
    def test_deterministic(self, solver):
        rng = np.random.default_rng(9)
        a = random_symmetric(rng, 7)
        r1 = solver(a.copy())
        r2 = solver(a.copy())
        if isinstance(r1, EigResult):
            assert np.array_equal(r1.values, r2.values)
            assert np.array_equal(r1.vectors, r2.vectors)
        else:
            assert r1 == r2

    def test_returns_named_result(self):
        res = sym_eig(np.eye(3))
        assert isinstance(res, EigResult)


class TestShiftInvariance:
    def test_min_eig_shift(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            a = random_symmetric(rng, n)
            c = float(rng.uniform(-5, 5))
            shifted = min_eig(a + c * np.eye(n))
            assert abs(shifted - (min_eig(a) + c)) <= 1e-9 * max(1.0, abs(c), np.abs(a).max())


class TestDefiniteness:
    def test_is_psd_within_default_tol(self):
        assert is_psd(np.array([[1.0, 0.0], [0.0, -1e-12]]))

    def test_is_psd_rejects_clear_negative(self):
        assert not is_psd(np.array([[1.0, 0.0], [0.0, -1e-3]]))

    def test_is_nsd_mirrors_is_psd(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = random_symmetric(rng, 5)
            assert is_nsd(a) == is_psd(-a)

    def test_explicit_tol_is_absolute(self):
        a = np.array([[1.0, 0.0], [0.0, -1e-6]])
        assert is_psd(a, tol=1e-5)
        assert not is_psd(a, tol=1e-7)

    def test_default_tol_scales_with_norm(self):
        big = 1e6 * np.eye(3)
        assert default_tol(big) == pytest.approx(1e-3)
        assert default_tol(np.eye(3)) == pytest.approx(1e-9)

    def test_max_eig(self):
        assert max_eig([[2.0, 0.0], [0.0, 5.0]]) == pytest.approx(5.0)


class TestSchurReduce:
    def test_two_by_two(self):
        # [[2, 1], [1, 2]]: complement of the trailing 1x1 block is 2 - 1/2
        out = schur_reduce(np.array([[2.0, 1.0], [1.0, 2.0]]), split=1)
        assert_allclose(out, [[1.5]])

    def test_singular_block_raises(self):
        m = np.array([[1.0, 0.5], [0.5, 0.0]])
        with pytest.raises(SingularBlockError):
            schur_reduce(m, split=1)

    def test_singular_rule_at_the_threshold(self):
        # min |lambda| <= 1e-12 max(1, max |lambda|): with eigenvalues 4 and
        # t the threshold is 4e-12, so 2e-12 is singular and 8e-12 is not,
        # for the trailing block here and for a shape matrix X_i alike
        for t, want in ((2e-12, True), (8e-12, False)):
            block = np.diag([4.0, t])
            assert singular(np.linalg.eigvalsh(block)) is want
            m = np.eye(3)
            m[1:, 1:] = block
            params = FixedParams(X=[block], lam=[0.5], N_const=[1.0],
                                 M=[np.eye(1)], tau=[1.0], Q=np.eye(2),
                                 R=np.eye(1))
            for call in (lambda: schur_reduce(m, split=1),
                         lambda: params.shape_inverses):
                if want:
                    with pytest.raises(SingularBlockError):
                        call()
                else:
                    call()

    def test_split_bounds(self):
        with pytest.raises(InvalidMatrixError):
            schur_reduce(np.eye(3), split=3)

    def test_definiteness_equivalence_with_negative_definite_block(self):
        # with C negative definite, M nsd  <=>  A - B' C^{-1} B nsd
        rng = np.random.default_rng(17)
        agree = 0
        for _ in range(100):
            na, nc = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = random_symmetric(rng, na)
            b = rng.standard_normal((nc, na))
            c = -random_symmetric(rng, nc) @ np.eye(nc)
            c = -(c @ c.T) - 0.1 * np.eye(nc)  # strictly negative definite
            m = np.block([[a, b.T], [b, c]])
            reduced = schur_reduce(sym_matrix(m), split=na)
            full_nsd = is_nsd(sym_matrix(m), tol=1e-10)
            red_nsd = is_nsd(reduced, tol=1e-10)
            agree += full_nsd == red_nsd
        assert agree == 100

    def test_symmetric_output(self):
        rng = np.random.default_rng(19)
        m = random_symmetric(rng, 6) - 3.0 * np.eye(6)
        out = schur_reduce(m, split=3)
        assert np.array_equal(out, out.T)
