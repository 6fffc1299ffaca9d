import numpy as np
import pytest

from radreg import isotropy
from radreg.errors import ContractViolation, IsotropyStalled, RadregError
from radreg.isotropy import (
    HeavySubspace,
    RadialTransform,
    certifying_gamma,
    check_forster_condition,
    find_heavy_subspace,
    min_isotropy_eig,
    radial_isotropize,
    second_moment,
)


def assert_valid_transform(t, points, gamma):
    assert isinstance(t, RadialTransform)
    A = t.matrix
    assert np.allclose(A, A.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(A) > 0)
    assert np.isfinite(t.log_condition_number)
    U = t.apply(points)
    lam_min = min_isotropy_eig(U)
    assert lam_min >= 1.0 - gamma - 1e-12
    assert lam_min >= 1.0 - t.gamma_achieved - 1e-12


def stretched_cloud():
    """Far from isotropic, no heavy subspace, and d > EXHAUSTIVE_MAX_DIM:
    with no iterations allowed, the fixed point stalls."""
    return np.random.default_rng(14).standard_normal((200, 8)) * np.geomspace(100.0, 1.0, 8)


class TestRadialIsotropize:
    def test_standard_basis_is_already_isotropic(self):
        t = radial_isotropize(np.eye(4), gamma=0.5)
        assert isinstance(t, RadialTransform)
        assert t.gamma_achieved <= 1e-12
        assert t.iterations_used == 0

    def test_doubled_axis_point_is_heavy(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = radial_isotropize(pts, gamma=0.25)
        assert isinstance(out, HeavySubspace)
        assert out.dim == 1
        assert out.fraction == pytest.approx(2.0 / 3.0)
        assert np.allclose(np.abs(out.basis.vectors.ravel()), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cloud_verified_by_eigendecomposition(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((50, 5))
        t = radial_isotropize(pts, gamma=0.5)
        assert_valid_transform(t, pts, 0.5)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((30, 3))
        t1 = radial_isotropize(pts, gamma=0.4)
        t2 = radial_isotropize(scale * pts, gamma=0.4)
        assert isinstance(t1, RadialTransform) and isinstance(t2, RadialTransform)
        assert np.max(np.abs(t1.apply(pts) - t2.apply(scale * pts))) <= 1e-8

    def test_scale_invariant_rejection(self):
        pts = np.array([[2.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
        for c in (1.0, 7.0):
            out = radial_isotropize(c * pts, gamma=0.25)
            assert isinstance(out, HeavySubspace)
            assert out.fraction == pytest.approx(2.0 / 3.0)

    def test_too_few_points(self):
        # fewer than d points never span R^d: their span is the heavy subspace
        out = radial_isotropize(np.eye(3)[:2], gamma=0.5)
        assert isinstance(out, HeavySubspace)
        assert out.dim == 2
        assert out.fraction == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolation):
            radial_isotropize(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    def test_bad_gamma(self):
        with pytest.raises(ContractViolation):
            radial_isotropize(np.eye(3), gamma=0.0)

    def test_stall_has_its_own_type(self):
        with pytest.raises(IsotropyStalled) as info:
            radial_isotropize(stretched_cloud(), gamma=0.5, max_iters=0)
        assert isinstance(info.value, RadregError)

    def test_rank_deficient_cloud_is_heavy(self):
        rng = np.random.default_rng(12)
        coeff = rng.standard_normal((20, 2))
        basis = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        out = radial_isotropize(coeff @ basis, gamma=0.5)
        assert isinstance(out, HeavySubspace)
        assert out.dim == 2
        assert out.fraction == 1.0

    def test_second_moment_trace(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((40, 4))
        t = radial_isotropize(pts, gamma=0.5)
        U = t.apply(pts)
        assert np.trace(second_moment(U)) == pytest.approx(4.0)


class TestHeavySubspaceVerification:
    def plant(self, seed, m=200, d=3, frac=0.5):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((m, d))
        k = int(frac * m)
        pts[:k, 1:] = 0.0  # k points exactly on span(e1)
        return pts, k

    def test_planted_line_found(self):
        pts, k = self.plant(seed=21, m=100, d=3, frac=0.5)
        out = find_heavy_subspace(pts)
        assert out is not None
        assert out.dim == 1
        assert out.fraction == pytest.approx(k / 100)
        assert np.allclose(np.abs(out.basis.vectors.ravel()), [1.0, 0.0, 0.0])

    def test_fraction_recount_matches(self):
        pts, _ = self.plant(seed=22)
        out = find_heavy_subspace(pts)
        norms = np.linalg.norm(pts, axis=1)
        dist = out.basis.distance(pts)
        members = dist <= 1e-9 * norms
        assert members.sum() / len(pts) == pytest.approx(out.fraction, abs=1e-12)
        assert out.fraction * out.ambient_dim > out.dim  # strictly heavy
        # every reported member is within the strict tolerance
        assert np.all(dist[out.member_mask] <= 1e-9 * norms[out.member_mask])

    def test_isotropic_cloud_has_none(self):
        rng = np.random.default_rng(23)
        assert find_heavy_subspace(rng.standard_normal((80, 4))) is None

    def test_degenerate_full_span(self):
        rng = np.random.default_rng(24)
        coeff = rng.standard_normal((30, 2))
        basis = np.zeros((2, 4))
        basis[0, 0] = basis[1, 2] = 1.0
        out = find_heavy_subspace(coeff @ basis)
        assert out is not None
        assert out.dim == 2
        assert out.fraction == 1.0

    def test_stall_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(isotropy, "default_max_iters", lambda d, gamma: 0)
        assert find_heavy_subspace(stretched_cloud()) is None

    def test_one_dim_has_no_heavy(self):
        assert find_heavy_subspace(np.array([[1.0], [-2.0], [3.0]])) is None

    def test_fewer_points_than_dimensions(self):
        # certifying_gamma(1, 2) is 1.0, which radial_isotropize rejects
        one = find_heavy_subspace(np.array([[3.0, 4.0]]))
        assert one.dim == 1 and one.fraction == 1.0
        two = find_heavy_subspace(np.eye(3)[:2])
        assert two.dim == 2 and two.fraction == 1.0


class TestCheckForsterCondition:
    def test_balanced_pair(self):
        ok, witness = check_forster_condition(np.eye(2))
        assert ok and witness is None

    def test_doubled_point(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ok, witness = check_forster_condition(pts)
        assert not ok
        assert witness.dim == 1
        assert np.allclose(np.abs(witness.basis.vectors.ravel()), [1.0, 0.0])

    def test_random_general_position(self):
        rng = np.random.default_rng(25)
        ok, witness = check_forster_condition(rng.standard_normal((20, 3)))
        assert ok and witness is None

    def test_agrees_with_iterative_detector(self):
        # exhaustive enumeration and the fixed-point detector must agree
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            pts = rng.standard_normal((24, 3))
            if seed % 2:
                pts[:14, 1:] = 0.0  # plant a heavy line
            ok, witness = check_forster_condition(pts)
            found = find_heavy_subspace(pts)
            assert ok == (found is None)


class TestCertifyingGamma:
    def test_margin_below_single_point_cap(self):
        # one point over the threshold caps lambda_min at 1 - d/(n(d-1));
        # the certifying gap must stay strictly inside that
        for n, d in [(10, 2), (300, 2), (200, 5), (3084, 410)]:
            assert certifying_gamma(n, d) < d / (n * (d - 1))

    def test_planted_heavy_never_certified(self):
        # an instance with a heavy subspace must never converge past the
        # certifying threshold (it gets detected instead)
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((60, 3))
        pts[:25, 1:] = 0.0  # 25/60 > 1/3 on a line
        out = radial_isotropize(pts, gamma=certifying_gamma(60, 3))
        assert isinstance(out, HeavySubspace)
