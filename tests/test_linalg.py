import numpy as np
import pytest

from radreg.errors import ContractViolation, EmptyComplement, SingularMatrix
from radreg.linalg import (
    OrthonormalBasis,
    inv_sqrt_psd,
    orthonormal_complement,
    span_basis,
)


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


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(4)), np.eye(4))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ContractViolation):
            inv_sqrt_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

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

    def test_matches_char_poly_bisection(self):
        # the eigenvalues of M^{-1/2} are lambda^{-1/2} for the roots lambda
        # of M's characteristic polynomial
        M = random_psd(3, seed=7)
        oracle = char_poly_roots_bisection(M)
        assert len(oracle) == 3
        evals = np.linalg.eigvalsh(inv_sqrt_psd(M))
        assert np.allclose(evals, np.sort(1.0 / np.sqrt(oracle)), rtol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_principal_root_is_symmetric_positive_definite(self, seed):
        # A M A = I alone also holds for -A; the principal root is the SPD one
        M = random_psd(6, seed + 100)
        A = inv_sqrt_psd(M)
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        assert np.linalg.eigvalsh(A)[0] > 0.0

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
