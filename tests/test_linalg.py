import numpy as np
import pytest

from radreg.errors import ContractViolation, EmptyComplement, SingularMatrix
from radreg.linalg import (
    OrthonormalBasis,
    inv_sqrt_psd,
    orthonormal_complement,
    span_basis,
    sym_eigendecomp,
)


def random_symmetric(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    return 0.5 * (A + A.T)


def random_psd(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    return A @ A.T + 0.1 * np.eye(d)


def char_poly_roots_bisection(M, lo=-100.0, hi=100.0, tol=1e-12):
    """Independent eigenvalue oracle: sign changes of det(M - t I) located
    by bisection on a fine grid."""
    def p(t):
        return np.linalg.det(M - t * np.eye(M.shape[0]))

    grid = np.linspace(lo, hi, 20001)
    vals = [p(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = p(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


class TestSymEigendecomp:
    def test_identity(self):
        evals, basis = sym_eigendecomp(np.eye(3))
        assert np.allclose(evals, [1.0, 1.0, 1.0])
        assert basis.size == 3

    def test_diagonal(self):
        evals, basis = sym_eigendecomp(np.diag([2.0, 3.0]))
        assert np.allclose(evals, [3.0, 2.0])
        assert np.allclose(np.abs(basis.vectors[:, 0]), [0.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(basis.vectors[:, 1]), [1.0, 0.0], atol=1e-12)

    def test_matches_char_poly_bisection(self):
        M = random_symmetric(3, seed=7)
        evals, _ = sym_eigendecomp(M)
        oracle = char_poly_roots_bisection(M)
        assert len(oracle) == 3
        assert np.allclose(evals, oracle, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_eigenpair_residuals(self, seed):
        M = random_symmetric(6, seed)
        evals, basis = sym_eigendecomp(M)
        assert np.all(np.diff(evals) <= 1e-12)  # descending
        for lam, v in zip(evals, basis.vectors.T):
            assert np.linalg.norm(M @ v - lam * v) <= 1e-9 * (1 + abs(lam))

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        M = random_symmetric(5, seed + 100)
        evals, basis = sym_eigendecomp(M)
        V = basis.vectors
        R = (V * evals) @ V.T
        assert np.linalg.norm(R - M, ord=2) <= 1e-9

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ContractViolation):
            sym_eigendecomp(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        A = inv_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(A, np.diag([0.5, 1.0 / 3.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_multiply_back(self, seed):
        M = random_psd(4, seed)
        A = inv_sqrt_psd(M)
        assert np.linalg.norm(A @ M @ A - np.eye(4), ord=2) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_composed_twice(self, seed):
        M = random_psd(5, seed + 50)
        A = inv_sqrt_psd(M)
        assert np.linalg.norm(A @ A @ M - np.eye(5), ord=2) <= 1e-8

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inv_sqrt_psd(np.diag([1.0, 0.0]))

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrix):
            inv_sqrt_psd(np.diag([1.0, -2.0]))


class TestOrthonormalComplement:
    def test_e1_in_r2(self):
        comp = orthonormal_complement(np.array([[1.0], [0.0]]))
        assert np.allclose(np.abs(comp.vectors.ravel()), [0.0, 1.0])

    def test_e1e2_in_r3(self):
        B = np.eye(3)[:, :2]
        comp = orthonormal_complement(B)
        assert comp.size == 1
        assert np.allclose(np.abs(comp.vectors.ravel()), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_subspace_gram(self, seed):
        rng = np.random.default_rng(seed)
        B = span_basis(rng.standard_normal((2, 5)))
        comp = orthonormal_complement(B)
        assert comp.size == 3
        full = np.hstack([B.vectors, comp.vectors])
        gram = full.T @ full
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-10

    def test_full_basis_raises(self):
        with pytest.raises(EmptyComplement):
            orthonormal_complement(np.eye(3))


class TestOrthonormalBasis:
    def test_rejects_nonorthonormal(self):
        with pytest.raises(ContractViolation):
            OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        B = span_basis(rng.standard_normal((3, 6)))
        x = rng.standard_normal((10, 6))
        once = B.project(x)
        twice = B.project(once)
        assert np.max(np.abs(twice - once)) <= 1e-12
