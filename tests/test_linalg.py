import numpy as np
import pytest

from radreg.errors import ContractViolation
from radreg.linalg import (
    OrthonormalBasis,
    _row_norms,
    matrix_rank,
    orthonormal_complement,
    span_basis,
)


class TestOrthonormalComplement:
    def test_e1_in_r2(self):
        comp = orthonormal_complement(OrthonormalBasis(np.array([[1.0], [0.0]])))
        assert np.allclose(np.abs(comp.vectors.ravel()), [0.0, 1.0])

    def test_e1e2_in_r3(self):
        B = OrthonormalBasis(np.eye(3)[:, :2])
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
        with pytest.raises(ContractViolation, match="already spans"):
            orthonormal_complement(OrthonormalBasis(np.eye(3)))


class TestOrthonormalBasis:
    def test_rejects_nonorthonormal(self):
        with pytest.raises(ContractViolation):
            OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("vectors", [np.eye(2, 3), np.array([1.0, 0.0])])
    def test_rejects_more_vectors_than_dimensions_or_one_vector(self, vectors):
        with pytest.raises(ContractViolation, match="is not k <= d columns"):
            OrthonormalBasis(vectors)

    def test_distance_is_the_norm_off_the_span(self):
        rng = np.random.default_rng(0)
        B = span_basis(rng.standard_normal((3, 6)))
        inside = rng.standard_normal((10, 3)) @ B.vectors.T
        off = rng.standard_normal((10, 3)) @ orthonormal_complement(B).vectors.T
        assert np.max(B.distance(inside)) <= 1e-12
        assert np.allclose(B.distance(inside + off), np.linalg.norm(off, axis=1), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_idempotent(self, seed):
        # distance is the norm of x minus its projection onto the span: the
        # projection lies in the span, and what is left lies off it
        rng = np.random.default_rng(seed)
        B = span_basis(rng.standard_normal((3, 6)))
        x = rng.standard_normal((10, 6))
        once = (x @ B.vectors) @ B.vectors.T
        off = x - once
        assert np.max(B.distance(once)) <= 1e-12
        assert np.allclose(B.distance(off), np.linalg.norm(off, axis=1), atol=1e-12)
        assert np.allclose(B.distance(x), np.linalg.norm(off, axis=1), atol=1e-12)


class TestAllZeroPoints:
    def test_span_basis_raises(self):
        with pytest.raises(ContractViolation, match="all-zero"):
            span_basis(np.zeros((4, 3)))

    def test_matrix_rank_is_zero(self):
        assert matrix_rank(np.zeros((4, 3))) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_row_norms_hold_across_the_float_range_and_keep_the_fast_norm_in_range():
    rng = np.random.default_rng(0)
    V = rng.standard_normal((6, 5)) * np.array([1e200, 1e-200, 1e-160, 1.0, 1e149, 0.0])[:, None]
    norms = _row_norms(V)
    np.testing.assert_allclose(norms, np.hypot.reduce(V, axis=1), rtol=1e-15, atol=0.0)
    assert np.array_equal(norms[3:], np.sqrt(np.einsum("ij,ij->i", V, V))[3:])
