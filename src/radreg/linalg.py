"""Orthonormal bases, complements, spans and ranks of dense point sets.

Everything here operates on plain float ndarrays. The heavy lifting is
delegated to LAPACK through numpy/scipy; this module pins down the contracts
(orthonormality validation, one rank cutoff) that the rest of the package
relies on.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractViolation

ORTHO_TOL = 1e-10      # orthonormality slack for basis validation
RANK_RTOL = 1e-9       # singular-value cutoff for span/rank decisions


def _row_norms(V):
    """Euclidean norm of each row of V, summed without an m x d temporary: the package's
    one row-norm kernel. Only rows whose squares may leave the float range, a norm
    outside [1e-150, 1e150], are summed again by ``np.hypot``, which scales."""
    norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    if not (norms.min(initial=1.0) >= 1e-150 and norms.max(initial=1.0) <= 1e150):
        far = ~((norms >= 1e-150) & (norms <= 1e150))
        norms[far] = np.hypot.reduce(V[far], axis=1)
    return norms


@dataclass
class OrthonormalBasis:
    """Columns of ``vectors`` (d, k) form an orthonormal set, k <= d."""

    vectors: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=float)
        if V.ndim != 2 or V.shape[1] > V.shape[0]:
            raise ContractViolation(
                f"basis of shape {V.shape} is not k <= d columns in dimension d"
            )
        gram = V.T @ V
        if not np.allclose(gram, np.eye(V.shape[1]), atol=ORTHO_TOL):
            raise ContractViolation("basis vectors are not orthonormal")
        self.vectors = V

    @property
    def ambient_dim(self):
        return self.vectors.shape[0]

    @property
    def size(self):
        return self.vectors.shape[1]

    def distance(self, x):
        """Euclidean distance of row vectors from the subspace."""
        x = np.asarray(x, dtype=float)
        return _row_norms(np.atleast_2d(x - (x @ self.vectors) @ self.vectors.T))


def orthonormal_complement(basis):
    """Orthonormal basis of the orthogonal complement of an OrthonormalBasis."""
    if basis.size >= basis.ambient_dim:
        raise ContractViolation("basis already spans the ambient space")
    comp = scipy.linalg.null_space(basis.vectors.T)
    return OrthonormalBasis(comp)


def span_basis(points):
    """Orthonormal basis of the span of row vectors, rank by SV cutoff."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    U, s, Vt = np.linalg.svd(P, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ContractViolation("cannot take the span of all-zero points")
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return OrthonormalBasis(Vt[:rank].T)


def matrix_rank(points):
    P = np.atleast_2d(np.asarray(points, dtype=float))
    s = np.linalg.svd(P, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))
