import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    check_forster_condition,
    detect_heavy_per_candidate,
    isotropize_fixed_point,
    isotropize_polar_every_step,
    min_isotropy_eig,
    rank_deficient_span,
    second_moment,
    sym_polar,
)
from radreg import isotropy
from radreg.bench import SyntheticSpec, make_synthetic_dataset
from radreg.errors import ContractViolation, InsufficientPoints, IsotropyStalled, RadregError
from radreg.isotropy import (
    DEGENERATE_RTOL,
    DETECT_EVERY,
    MEMBER_RTOL,
    NEWTON_AFTER,
    HeavySubspace,
    RadialTransform,
    _cholesky_inverse,
    _detect_heavy,
    _unit_rows,
    certifying_gamma,
    radial_isotropize,
)
from radreg.linalg import RANK_RTOL, span_basis


def assert_valid_transform(t, points, gamma):
    assert isinstance(t, RadialTransform)
    assert np.isfinite(t.log_condition_number)
    assert t.log_condition_number == pytest.approx(np.log(np.linalg.cond(t.matrix)), abs=1e-9)
    U = t.apply(points)
    lam_min = min_isotropy_eig(U)
    assert lam_min >= 1.0 - gamma - 1e-12
    assert lam_min >= 1.0 - t.gamma_achieved - 1e-12


def stretched_cloud():
    """Far from isotropic and no heavy subspace: with no iterations
    allowed, the fixed point stalls."""
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
        assert out.basis.size == 1
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
        assert out.basis.size == 2
        assert out.fraction == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolation):
            radial_isotropize(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    def test_bad_gamma(self):
        with pytest.raises(ContractViolation):
            radial_isotropize(np.eye(3), gamma=0.0)

    def test_stall_has_its_own_type(self, monkeypatch):
        monkeypatch.setattr(isotropy, "default_max_iters", lambda d, gamma: 0)
        with pytest.raises(IsotropyStalled) as info:
            radial_isotropize(stretched_cloud(), gamma=0.5)
        assert isinstance(info.value, RadregError)

    def test_rank_deficient_cloud_is_heavy(self):
        rng = np.random.default_rng(12)
        coeff = rng.standard_normal((20, 2))
        basis = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        out = radial_isotropize(coeff @ basis, gamma=0.5)
        assert isinstance(out, HeavySubspace)
        assert out.basis.size == 2
        assert out.fraction == 1.0

    def test_second_moment_trace(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((40, 4))
        t = radial_isotropize(pts, gamma=0.5)
        U = t.apply(pts)
        assert np.trace(second_moment(U)) == pytest.approx(4.0)


def at_certifying_gap(points):
    """The search every recursion level of the library runs."""
    return radial_isotropize(points, certifying_gamma(*np.atleast_2d(points).shape))


@pytest.mark.parametrize("search", [radial_isotropize, at_certifying_gap])
class TestInputIsTyped:
    def test_no_points_raise_insufficient_points(self, search):
        # d / n used to raise a bare ZeroDivisionError
        with pytest.raises(InsufficientPoints):
            search(np.empty((0, 3)))

    @pytest.mark.parametrize("n, d, value", [(200, 5, np.nan), (2, 2, np.nan), (2, 2, np.inf)])
    def test_non_finite_point_is_refused_before_the_first_iteration(self, search, n, d, value,
                                                                    monkeypatch):
        # one NaN used to surface as a bare LinAlgError on a 200 x 5 set, and on
        # a 2 x 2 set as IsotropyStalled after 1020 iterations; inf also warned
        monkeypatch.setattr(isotropy, "_cholesky_inverse",
                            lambda M: pytest.fail("an iteration ran"))
        points = np.random.default_rng(0).standard_normal((n, d))
        points[-1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match=f"point {n - 1} has a non-finite norm"):
                search(points)


class TestHeavySubspaceVerification:
    def plant(self, seed, m=200, d=3, frac=0.5):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((m, d))
        k = int(frac * m)
        pts[:k, 1:] = 0.0  # k points exactly on span(e1)
        return pts, k

    def test_planted_line_found(self):
        pts, k = self.plant(seed=21, m=100, d=3, frac=0.5)
        out = radial_isotropize(pts, certifying_gamma(*pts.shape))
        assert isinstance(out, HeavySubspace)
        assert out.basis.size == 1
        assert out.fraction == pytest.approx(k / 100)
        assert np.allclose(np.abs(out.basis.vectors.ravel()), [1.0, 0.0, 0.0])

    def test_fraction_recount_matches(self):
        pts, _ = self.plant(seed=22)
        out = radial_isotropize(pts, certifying_gamma(*pts.shape))
        norms = np.linalg.norm(pts, axis=1)
        dist = out.basis.distance(pts)
        members = dist <= 1e-9 * norms
        assert members.sum() / len(pts) == pytest.approx(out.fraction, abs=1e-12)
        assert out.fraction * out.basis.ambient_dim > out.basis.size  # strictly heavy
        # every reported member is within the strict tolerance
        assert np.all(dist[out.member_mask] <= 1e-9 * norms[out.member_mask])

    def test_isotropic_cloud_has_none(self):
        rng = np.random.default_rng(23)
        assert isinstance(radial_isotropize(rng.standard_normal((80, 4)), certifying_gamma(80, 4)),
                          RadialTransform)

    def test_degenerate_full_span(self):
        rng = np.random.default_rng(24)
        coeff = rng.standard_normal((30, 2))
        basis = np.zeros((2, 4))
        basis[0, 0] = basis[1, 2] = 1.0
        out = radial_isotropize(coeff @ basis, certifying_gamma(30, 4))
        assert isinstance(out, HeavySubspace)
        assert out.basis.size == 2
        assert out.fraction == 1.0

    def test_capture_set_spanning_the_space_is_refused(self):
        # a capture set whose span is all of R^d holds no proper subspace to verify
        Xu = _unit_rows(np.random.default_rng(25).standard_normal((20, 3)))
        assert isotropy._verify_candidate(Xu, np.ones(20, dtype=bool)) == (None, False)

    def test_capture_set_whose_span_holds_no_point_is_refused(self):
        # four points 0.9e-9 off e1 along both other axes: their span drops
        # singular values 0.9e-9 times the largest, below RANK_RTOL, so it is
        # the line e1, and each point lies 1.3e-9 from it, beyond MEMBER_RTOL
        offsets = 0.9e-9 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        rng = np.random.default_rng(26)
        Xu = _unit_rows(np.vstack([np.column_stack([np.ones(4), offsets]),
                                   rng.standard_normal((16, 3))]))
        loose = np.arange(20) < 4
        fitted = span_basis(Xu[loose])
        assert fitted.size == 1 and (fitted.distance(Xu) > MEMBER_RTOL).all()
        assert isotropy._verify_candidate(Xu, loose) == (None, False)

    def test_strict_members_spanning_the_space_are_refused(self):
        # four captured points on the plane x3 = 0 span it exactly; twelve more
        # points of the plane, each 0.99e-9 off it, are strict members too, and
        # with them the members' third singular value is 1.2e-9 times the
        # largest, above RANK_RTOL: they span R^3
        angles = np.arange(16) * np.pi / 16
        heights = np.r_[np.zeros(4), 0.99e-9 * (-1.0) ** np.arange(12)]
        Xu = _unit_rows(np.column_stack([np.cos(angles), np.sin(angles), heights]))
        loose = np.arange(16) < 4
        fitted = span_basis(Xu[loose])
        strict = fitted.distance(Xu) <= MEMBER_RTOL
        assert fitted.size == 2 and strict.all() and span_basis(Xu[strict]).size == 3
        assert isotropy._verify_candidate(Xu, loose) == (None, False)

    def test_stall_is_inconclusive(self, monkeypatch):
        # a stall proves nothing, so it is not "none"
        monkeypatch.setattr(isotropy, "default_max_iters", lambda d, gamma: 0)
        with pytest.raises(IsotropyStalled):
            radial_isotropize(stretched_cloud(), certifying_gamma(200, 8))

    def test_stall_at_desk_scale_is_inconclusive(self, monkeypatch):
        # the same contract at d = 3
        monkeypatch.setattr(isotropy, "default_max_iters", lambda d, gamma: 0)
        with pytest.raises(IsotropyStalled):
            radial_isotropize(stretched_cloud()[:40, :3], certifying_gamma(40, 3))

    def test_one_dim_has_no_heavy(self):
        out = radial_isotropize(np.array([[1.0], [-2.0], [3.0]]), certifying_gamma(3, 1))
        assert isinstance(out, RadialTransform)

    def test_fewer_points_than_dimensions(self):
        # certifying_gamma(1, 2) is capped at DEFAULT_GAMMA: the margin, 1.0,
        # lies outside the (0, 1) radial_isotropize accepts
        one = radial_isotropize(np.array([[3.0, 4.0]]), certifying_gamma(1, 2))
        assert one.basis.size == 1 and one.fraction == 1.0
        two = radial_isotropize(np.eye(3)[:2], certifying_gamma(2, 3))
        assert two.basis.size == 2 and two.fraction == 1.0


def iterates(Xu, steps):
    """(A, M) after each of ``steps`` unsymmetrized fixed-point updates from I."""
    A = np.eye(Xu.shape[1])
    for step in range(max(steps) + 1):
        V = Xu @ A.T
        M = second_moment(V / np.linalg.norm(V, axis=1)[:, None])
        if step in steps:
            yield A, M
        evals, evecs = np.linalg.eigh(M)
        A = (evecs / np.sqrt(evals)) @ evecs.T @ A


def on_subspace(rng, n, d, k, members):
    """n Gaussian points of R^d, the first ``members`` on a random k-dim subspace."""
    X = rng.standard_normal((n, d))
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0]
    X[:members] = rng.standard_normal((members, k)) @ basis.T
    return _unit_rows(X[rng.permutation(n)])


DETECTOR_CASES = {
    "heavy line in R^3": (lambda rng: on_subspace(rng, 100, 3, 1, 50), True),
    "heavy plane in R^8": (lambda rng: on_subspace(rng, 300, 8, 2, 120), True),
    # the V-perp level of the heavy_recursion benchmark: exactly 4/14, not heavy
    "200 of 700 on 4 of 14 dims": (lambda rng: on_subspace(rng, 700, 14, 4, 200), False),
    "Gaussian cloud in R^5": (lambda rng: on_subspace(rng, 60, 5, 1, 0), False),
    "Gaussian cloud in R^12": (lambda rng: on_subspace(rng, 200, 12, 1, 0), False),
}


class TestDetectorMatchesPerCandidateSVDs:
    """One QR of all back-mapped eigenvectors against one SVD per candidate."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("case", sorted(DETECTOR_CASES))
    def test_same_answer_along_the_iteration(self, case, seed):
        make, heavy = DETECTOR_CASES[case]
        rng = np.random.default_rng(seed)
        Xu = make(rng)
        d = Xu.shape[1]
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        found_any = False
        for A, M in iterates(Xu, (0, 1, 3, 10, 24, 49)):
            # A is not symmetric after the first step; a rotation on the left
            # makes it less so and must change neither answer
            for A_, M_ in ((A, M), (rotation @ A, rotation @ M @ rotation.T)):
                new, new_crawl = _detect_heavy(Xu, A_, np.linalg.eigh(M_)[1])
                old, old_crawl = detect_heavy_per_candidate(Xu, A_, M_)
                assert (new is None) == (old is None) and new_crawl == old_crawl
                if new is not None:
                    found_any = True
                    assert np.array_equal(new.basis.vectors, old.basis.vectors)
                    assert np.array_equal(new.member_mask, old.member_mask)
                    assert new.fraction == old.fraction
        assert found_any == heavy


class TestRankTrigger:
    """The rank SVD runs only on a near-singular first spectrum."""

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (4, 9)])
    def test_fewer_points_than_dimensions(self, n, d, monkeypatch):
        X = np.random.default_rng(n * d).standard_normal((n, d))
        self.assert_span(X, monkeypatch)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_scaled_by_huge_and_tiny_powers_of_two(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 3)) @ np.linalg.qr(rng.standard_normal((6, 3)))[0].T
        self.assert_span(X * np.exp2(rng.integers(-40, 41, size=30))[:, None], monkeypatch)

    def test_well_conditioned_set_takes_no_rank_svd(self, monkeypatch):
        calls = self.count_rank_svds(monkeypatch)
        pts = np.random.default_rng(4).standard_normal((50, 5))
        assert isinstance(radial_isotropize(pts, gamma=0.01), RadialTransform)
        assert calls == []

    @staticmethod
    def count_rank_svds(monkeypatch):
        calls = []
        rank = isotropy.matrix_rank
        monkeypatch.setattr(isotropy, "matrix_rank", lambda P: calls.append(P) or rank(P))
        return calls

    def assert_span(self, X, monkeypatch):
        expected = rank_deficient_span(_unit_rows(X))
        calls = self.count_rank_svds(monkeypatch)
        out = radial_isotropize(X, gamma=0.5)
        assert len(calls) == 1
        assert isinstance(out, HeavySubspace) and out.fraction == 1.0
        assert np.array_equal(out.basis.vectors, expected.basis.vectors)
        assert np.array_equal(out.member_mask, expected.member_mask)

    @staticmethod
    def full_rank_with_ratio(ratio, d=8, n=40):
        """Unit rows whose smallest singular value is about ``ratio`` times
        the largest."""
        U, _, Vt = np.linalg.svd(np.random.default_rng(3).standard_normal((n, d)),
                                 full_matrices=False)
        s = np.linspace(1.0, 0.5, d)
        s[-1] = ratio
        return _unit_rows((U * s) @ Vt)

    @pytest.mark.parametrize("d", [8, 6])
    @pytest.mark.parametrize("ratio", [1e-6, 1e-8, 1.1e-9])
    def test_full_rank_near_singular_set_still_iterates(self, ratio, d, monkeypatch):
        # eigenvalue ratio 1e-12 down to about 1e-18, below M's rounding: the
        # trigger fires, the SVD says full rank, and the fixed point goes on
        # to a transform
        Xu = self.full_rank_with_ratio(ratio, d=d)
        evals = np.linalg.eigvalsh(second_moment(Xu))
        assert evals[0] <= 1e-9 * evals[-1]
        assert rank_deficient_span(Xu) is None
        calls = self.count_rank_svds(monkeypatch)
        t = radial_isotropize(Xu, gamma=0.5)
        assert len(calls) == 1
        assert isinstance(t, RadialTransform) and t.iterations_used >= 1
        assert min_isotropy_eig(t.apply(Xu)) >= 0.5


class TestFarFromIsotropic:
    """A stretched cloud needs many iterations; the transform is the last
    iterate, and its polar factor is what symmetrizing every step gives."""

    def points(self):
        return np.random.default_rng(14).standard_normal((200, 8)) * np.geomspace(1e3, 1.0, 8)

    def test_returned_transform(self):
        pts = self.points()
        t = radial_isotropize(pts, gamma=1e-9)
        A = t.matrix
        assert t.iterations_used >= 15
        assert t.log_condition_number == pytest.approx(np.log(np.linalg.cond(A)), abs=1e-9)
        assert min_isotropy_eig(t.apply(pts)) >= 1.0 - t.gamma_achieved - 1e-12

    def test_matches_a_polar_factor_every_step(self):
        pts = self.points()
        t = radial_isotropize(pts, gamma=1e-9)
        A, iterations, gamma_achieved, log_cond = isotropize_polar_every_step(
            _unit_rows(pts), 1e-9)
        assert t.iterations_used == iterations
        assert t.gamma_achieved == pytest.approx(gamma_achieved, abs=1e-12)
        assert t.log_condition_number == pytest.approx(log_cond, abs=1e-9)
        assert np.allclose(sym_polar(t.matrix)[0], A, rtol=0.0, atol=1e-8 * np.abs(A).max())


class TestCertifiedImages:
    """A transform carries the images its gap was certified on: the unit
    images of the unit points under ``matrix`` A. A's symmetric polar factor
    P = Q^T A, Q orthogonal, has those images turned by Q^T, so it
    certifies the same gap."""

    @pytest.mark.parametrize("case", [
        "settled at iteration 0", "stretched cloud in R^8", "Newton steps on 700 x 14",
        "near-singular full-rank set",
    ])
    def test_images_iterate_and_gap(self, case):
        pts, gamma = {
            "settled at iteration 0": lambda: (np.eye(4), 0.5),
            "stretched cloud in R^8": lambda: (TestFarFromIsotropic().points(), 1e-9),
            "Newton steps on 700 x 14": lambda: (
                on_subspace(np.random.default_rng(0), 700, 14, 4, 200),
                certifying_gamma(700, 14)),
            "near-singular full-rank set": lambda: (
                TestRankTrigger.full_rank_with_ratio(1e-8), 0.5),
        }[case]()
        t = radial_isotropize(pts, gamma)
        assert isinstance(t, RadialTransform)
        A = t.matrix
        assert np.array_equal(t.images, _unit_rows(_unit_rows(pts) @ A.T))
        lam_min = min_isotropy_eig(t.images)
        assert lam_min == pytest.approx(1.0 - t.gamma_achieved, rel=0.0, abs=2e-16)
        np.testing.assert_allclose(t.apply(pts), t.images, atol=1e-8)
        P = sym_polar(A)[0]
        Q = A @ np.linalg.inv(P)
        # inverting P rounds Q by about d * eps * cond(A): 1e-7 at cond 7e7
        slack = np.finfo(float).eps * np.linalg.cond(A)
        np.testing.assert_allclose(Q @ Q.T, np.eye(len(Q)), atol=max(1e-8, len(Q) * slack))
        np.testing.assert_allclose(_unit_rows(pts @ P.T), t.images @ Q, atol=1e-8)
        assert min_isotropy_eig(_unit_rows(pts @ P.T)) == pytest.approx(lam_min, abs=1e-8)


class TestNewtonPhase:
    """Damped Newton steps on Barthe's potential once a detector run verifies
    a span of exactly k/d of the points, or once two detector runs miss."""

    @staticmethod
    def count_newton_steps(monkeypatch):
        """Newton systems solved by later calls: True for a step taken,
        False for one that fell back."""
        solves = []
        newton = isotropy._newton_moment

        def counted(*args):
            result = newton(*args)
            solves.append(result is not None)
            return result

        monkeypatch.setattr(isotropy, "_newton_moment", counted)
        return solves

    @pytest.mark.parametrize("n, d, k, heavy, seed", [
        (700, 14, 4, 200, 0), (700, 14, 4, 200, 1),
        (200, 20, 5, 50, 0), (200, 20, 5, 50, 1), (200, 20, 5, 50, 2),
    ], ids=["0", "1", "direct-0", "direct-1", "direct-2"])
    def test_exactly_k_over_d_stops_crawling(self, n, d, k, heavy, seed):
        # exactly k/d of the points on k of d dims: only approximate transforms
        # exist. The fixed point alone takes about 370 iterations on 200 of
        # 700 points in R^14, about 96 on 50 of 200 in R^20. The Newton system
        # is solved as it stands when n <= d(d+1)/2, through Woodbury otherwise:
        # the 200-point sets take the one path, the 700-point sets the other.
        # The first detector run verifies the 4-dim span of the 700-point sets,
        # and the Newton steps start there; it misses the 5-dim span of the
        # 200-point sets, which wait for the second run
        assert (n <= d * (d + 1) // 2) == (n == 200)
        Xu = on_subspace(np.random.default_rng(seed), n, d, k, heavy)
        gamma = certifying_gamma(n, d)
        t = radial_isotropize(Xu, gamma)
        assert isinstance(t, RadialTransform)
        assert t.iterations_used <= 3 * DETECT_EVERY
        if n == 700:
            assert t.newton_from == DETECT_EVERY - 1 and t.iterations_used < NEWTON_AFTER
        else:
            assert t.newton_from == NEWTON_AFTER
        assert 1 <= t.newton_steps <= t.iterations_used - t.newton_from
        assert t.gamma_achieved <= gamma
        slack = np.finfo(float).eps * np.linalg.cond(t.matrix)
        assert min_isotropy_eig(t.apply(Xu)) >= 1.0 - t.gamma_achieved - slack
        assert isotropize_fixed_point(Xu, gamma).iterations_used > 3 * DETECT_EVERY

    def test_one_point_short_of_k_over_d_waits_for_the_second_run(self, monkeypatch):
        # the exactly-k/d signal is integer equality: with 199 of 700 points
        # on the 4 dims no span verifies, and the iterates up to the first
        # Newton step, at the second detector run, are the fixed point's up
        # to a left rotation
        Xu = on_subspace(np.random.default_rng(0), 700, 14, 4, 199)
        gamma = certifying_gamma(700, 14)
        images = []
        newton = isotropy._newton_moment
        monkeypatch.setattr(isotropy, "_newton_moment",
                            lambda U, *rest: images.append(U) or newton(U, *rest))
        t = radial_isotropize(Xu, gamma)
        assert isinstance(t, RadialTransform)
        assert t.newton_from == NEWTON_AFTER and t.newton_steps >= 1
        (A, _), = iterates(Xu, (NEWTON_AFTER,))
        expected = _unit_rows(Xu @ A.T)
        np.testing.assert_allclose(images[0] @ images[0].T, expected @ expected.T,
                                   rtol=0.0, atol=1e-9)

    def test_one_point_past_k_over_d_is_heavy(self, monkeypatch):
        # with 201 of 700 points on the 4 dims, the detector returns the same
        # heavy subspace as the fixed point's, before any Newton step
        Xu = on_subspace(np.random.default_rng(0), 700, 14, 4, 201)
        gamma = certifying_gamma(700, 14)
        solves = self.count_newton_steps(monkeypatch)
        found = radial_isotropize(Xu, gamma)
        expected = isotropize_fixed_point(Xu, gamma)
        assert solves == []
        assert isinstance(found, HeavySubspace) and found.basis.size == 4
        assert np.array_equal(found.basis.vectors, expected.basis.vectors)
        assert np.array_equal(found.member_mask, expected.member_mask)
        assert found.fraction == expected.fraction == 201 / 700

    @pytest.mark.parametrize("n, d, k", [(200, 4, 2), (200, 6, 1)])
    def test_barely_heavy_set_found_after_newton_steps(self, n, d, k, monkeypatch):
        # one point more than k/d on a k-dim subspace: the first two detector
        # runs miss it, the third finds it. The Newton system turns singular
        # as the subspace's images collapse; after the first failed solve
        # the call takes fixed-point steps only.
        Xu = on_subspace(np.random.default_rng(0), n, d, k, k * n // d + 1)
        gamma = certifying_gamma(n, d)
        solves = self.count_newton_steps(monkeypatch)
        found = radial_isotropize(Xu, gamma)
        expected = isotropize_fixed_point(Xu, gamma)
        assert solves[0] and solves.count(False) == 1 and not solves[-1]
        assert isinstance(found, HeavySubspace) and found.basis.size == k
        assert np.array_equal(found.basis.vectors, expected.basis.vectors)
        assert np.array_equal(found.member_mask, expected.member_mask)
        assert found.fraction == expected.fraction

    @pytest.mark.parametrize("failure", ["singular system", "no Armijo decrease"])
    @pytest.mark.parametrize("n, d, k, heavy", [(200, 20, 5, 50), (700, 14, 4, 200)],
                             ids=["direct", "woodbury"])
    def test_a_failed_newton_step_leaves_the_fixed_point(self, failure, n, d, k, heavy,
                                                         monkeypatch):
        # the exactly k/d sets above, where Newton steps normally settle the
        # crawl. The first step fails, by a LinAlgError from its system or by
        # trial moments whose potential is raised by 20 d, which no halving
        # brings below f(0); the call then runs the fixed point to its end
        Xu = on_subspace(np.random.default_rng(0), n, d, k, heavy)
        gamma = certifying_gamma(n, d)
        newton, eigh = isotropy._newton_moment, np.linalg.eigh

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        patched = {
            "singular system": ("solve", singular),
            "no Armijo decrease": ("eigh", lambda S: (np.exp(20.0) * eigh(S)[0], eigh(S)[1])),
        }[failure]
        results = []

        def failing(*args):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, *patched)
                results.append(newton(*args))
            return results[-1]

        monkeypatch.setattr(isotropy, "_newton_moment", failing)
        t = radial_isotropize(Xu, gamma)
        expected = isotropize_fixed_point(Xu, gamma)
        assert results == [None] and t.newton_steps == 0
        assert t.iterations_used == expected.iterations_used > 3 * DETECT_EVERY
        assert t.gamma_achieved == pytest.approx(expected.gamma_achieved, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("case", [
        "Gaussian cloud in R^5", "Gaussian cloud in R^12", "stretched cloud in R^8",
        "120-point mixture in R^30",
    ])
    def test_no_stall_is_the_fixed_point(self, case, monkeypatch):
        # the mixture set passes the first detector run and converges at
        # iteration 39, before the second
        pts = {
            "Gaussian cloud in R^5": lambda: on_subspace(np.random.default_rng(3), 60, 5, 1, 0),
            "Gaussian cloud in R^12": lambda: on_subspace(np.random.default_rng(3), 200, 12, 1, 0),
            "stretched cloud in R^8": TestFarFromIsotropic().points,
            "120-point mixture in R^30": lambda: make_synthetic_dataset(SyntheticSpec(30, 120)).x,
        }[case]()
        gamma = certifying_gamma(*pts.shape)
        solves = self.count_newton_steps(monkeypatch)
        t = radial_isotropize(pts, gamma)
        expected = isotropize_fixed_point(pts, gamma)
        assert solves == [] and t.newton_steps == 0
        assert 0 < t.iterations_used <= NEWTON_AFTER
        # the same iterates up to a left rotation: A^T A and the images' Gram
        # matrix agree, and the gap differs only by rounding (3e-15 seen)
        assert t.iterations_used == expected.iterations_used
        assert t.gamma_achieved == pytest.approx(expected.gamma_achieved, rel=0.0, abs=1e-14)
        gram = expected.matrix.T @ expected.matrix
        np.testing.assert_allclose(t.matrix.T @ t.matrix, gram, rtol=0.0,
                                   atol=1e-9 * np.abs(gram).max())
        np.testing.assert_allclose(t.images @ t.images.T, expected.images @ expected.images.T,
                                   rtol=0.0, atol=1e-9)


class TestCholeskyStep:
    """Fixed-point steps by Cholesky factor: the M^{-1/2} iteration turned by
    a rotation, with eigh kept for the detector, the Newton steps and the
    near-singular spectra whose rank and degeneracy tests need eigenvalues."""

    CASES = {
        **{f"Gaussian 50 x 5, seed {seed}": (
            lambda seed=seed: np.random.default_rng(seed).standard_normal((50, 5)), 0.5)
           for seed in range(6)},
        "Gaussian 30 x 3": (lambda: np.random.default_rng(11).standard_normal((30, 3)), 0.4),
        "Gaussian 40 x 4": (lambda: np.random.default_rng(13).standard_normal((40, 4)), 0.5),
        "stretched cloud in R^8": (lambda: TestFarFromIsotropic().points(), 1e-9),
        "Gaussian cloud in R^12": (
            lambda: on_subspace(np.random.default_rng(3), 200, 12, 1, 0), certifying_gamma(200, 12)),
        "120-point mixture in R^30": (
            lambda: make_synthetic_dataset(SyntheticSpec(30, 120)).x, certifying_gamma(120, 30)),
        "heavy line in R^3": (
            lambda: on_subspace(np.random.default_rng(0), 100, 3, 1, 50), certifying_gamma(100, 3)),
        "heavy plane in R^8": (
            lambda: on_subspace(np.random.default_rng(0), 300, 8, 2, 120), certifying_gamma(300, 8)),
        "planted line in R^3": (
            lambda: TestHeavySubspaceVerification().plant(21, m=100)[0], certifying_gamma(100, 3)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_iterations_as_the_fixed_point(self, case):
        make, gamma = self.CASES[case]
        pts = make()
        got, expected = radial_isotropize(pts, gamma), isotropize_fixed_point(pts, gamma)
        assert type(got) is type(expected)
        if isinstance(got, RadialTransform):
            assert got.iterations_used == expected.iterations_used
            assert got.newton_steps == 0
        else:
            assert got.basis.size == expected.basis.size and got.fraction == expected.fraction
            assert np.array_equal(got.member_mask, expected.member_mask)

    def test_one_eigendecomposition_on_the_mixture(self, monkeypatch):
        # 40 iterations: Cholesky steps at 0-23, the detector's eigh at 24,
        # Cholesky steps at 25-38 and the certified exit at 39
        pts = make_synthetic_dataset(SyntheticSpec(30, 120)).x
        events = []
        eigh, cholesky = np.linalg.eigh, isotropy._cholesky_inverse
        monkeypatch.setattr(np.linalg, "eigh", lambda M: events.append("eigh") or eigh(M))
        monkeypatch.setattr(isotropy, "_cholesky_inverse",
                            lambda M: events.append("cholesky") or cholesky(M))
        t = radial_isotropize(pts, certifying_gamma(120, 30))
        assert isinstance(t, RadialTransform) and t.iterations_used == 39
        assert events == ["cholesky"] * (DETECT_EVERY - 1) + ["eigh"] + ["cholesky"] * 15

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), extra=st.integers(-3, 40),
           small=st.integers(0, 3), exponent=st.floats(-20.0, 0.0))
    @example(seed=3, d=8, extra=32, small=1, exponent=-8.0)    # near-singular, full rank
    @example(seed=0, d=5, extra=10, small=2, exponent=-20.0)   # rank deficient to rounding
    @example(seed=0, d=6, extra=-3, small=0, exponent=0.0)     # fewer points than dimensions
    @example(seed=1, d=4, extra=20, small=1, exponent=-4.3)    # no rank trigger, eigh still steps
    @example(seed=1, d=4, extra=20, small=1, exponent=-3.9)    # just clear of the cutoff
    def test_takes_no_eigenvalue_decision(self, seed, d, extra, small, exponent):
        # whenever eigh's eigenvalues would fire the rank trigger or the
        # degeneracy test, the Cholesky path declines and eigh takes the step
        rng = np.random.default_rng(seed)
        n = max(1, d + extra)
        U, s, Vt = np.linalg.svd(rng.standard_normal((n, d)), full_matrices=False)
        if small:
            s[-small:] *= 10.0 ** exponent
        M = second_moment(_unit_rows((U * s) @ Vt))
        evals = np.linalg.eigh(M)[0]
        rank_trigger = evals[0] <= RANK_RTOL * evals[-1]
        degenerate = evals[0] <= DEGENERATE_RTOL * max(evals[-1], 1.0)
        L_inv = _cholesky_inverse(M)
        if rank_trigger or degenerate:
            assert L_inv is None
        elif L_inv is not None:
            np.testing.assert_allclose(L_inv @ M @ L_inv.T, np.eye(d), rtol=0.0, atol=1e-6)


class TestCheckForsterCondition:
    def test_balanced_pair(self):
        ok, witness = check_forster_condition(np.eye(2))
        assert ok and witness is None

    def test_doubled_point(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ok, witness = check_forster_condition(pts)
        assert not ok
        assert witness.basis.size == 1
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
            found = radial_isotropize(pts, certifying_gamma(24, 3))
            assert ok == isinstance(found, RadialTransform)


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
