import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from radreg import relu
from radreg.data import LabeledDataset
from radreg.errors import (ContractViolation, DimensionMismatch, HalfspaceEmpty,
                           InsufficientPoints, IsotropyStalled, NoRecovery, RadregError)
from radreg.isotropy import RadialTransform, _unit_rows
from radreg.l1 import FIT_RTOL, IRLS_ROUNDS, snap_to_rational
from radreg.linear import recover_linear
from radreg.noise import Constant, FlipNegate, MassartSpec, corrupt_massart
from radreg.relu import (
    EllipsoidConfig,
    SepResult,
    ellipsoid_cut,
    ellipsoid_recover_relu,
    gd_relu_transformed,
    relu_l1_loss,
    sep_oracle,
)

from oracles import (cut_along, ellipsoid_only, gd_step, gd_subgradient, l0_fit_bruteforce,
                     oracle_transform, sym_polar)


def fractions_of(vec):
    return tuple(Fraction(v) for v in vec)


def shifted_relu_instance(seed, d=3, m=2000, eta=0.3, w_range=5):
    """Covariates shifted 2 units along w*/|w*| so the positive side of the
    target carries ~98% of the mass; lambda = Phi(-2) > 0 and rho = 1 hold."""
    rng = np.random.default_rng(seed)
    w_star = rng.integers(-w_range, w_range + 1, size=d).astype(float)
    while not w_star.any():
        w_star = rng.integers(-w_range, w_range + 1, size=d).astype(float)
    X = rng.standard_normal((m, d)) + 2.0 * w_star / np.linalg.norm(w_star)
    clean = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
    corrupted, record = corrupt_massart(
        clean, MassartSpec(eta, FlipNegate(), seed + 7919)
    )
    return corrupted, record, w_star


def centered_relu_instance(i, d=3, m=2000, eta=0.2, strategy=FlipNegate()):
    """Standard normal covariates with no mean shift, so about half the
    labels are clean zeros."""
    rng = np.random.default_rng(i)
    w_star = rng.integers(-5, 6, size=d).astype(float)
    X = rng.standard_normal((m, d))
    corrupted, _ = corrupt_massart(LabeledDataset(X, np.maximum(X @ w_star, 0.0)),
                                   MassartSpec(eta, strategy, i))
    return corrupted, w_star


def constant_relu_instance(i):
    """A centered draw with 40% of the labels set to 1: those are about 4/7
    of the positive labels, and the candidate refuses on i = 0-5 and 7-11."""
    return centered_relu_instance(i, eta=0.4, strategy=Constant(1.0))


def two_points_on_the_query_side():
    """|N(0, I)| rows in R^3 with the first 2 negated and w* = (1, 1, 1):
    only those 2 rows lie on the positive side of the query w0 = -w*."""
    rng = np.random.default_rng(0)
    X = np.abs(rng.standard_normal((40, 3)))
    X[:2] *= -1.0
    w_star = np.ones(3)
    return LabeledDataset(X, np.maximum(X @ w_star, 0.0)), w_star


SPLIT_QUERY = np.array([1.0, 0.5, -0.5])


def line_and_cloud(seed, cloud_w=None, n_cloud=45, n_negative=40):
    """35 points t e1 (t in [0.5, 2]) labelled ReLU(w0.x) for the query
    w0 = SPLIT_QUERY, so the line is a heavy subspace of the query's
    positive side that w0 fits; ``n_cloud`` Gaussian points labelled by
    ``cloud_w``; ``n_negative`` points with w0.x < -0.1 labelled 1, which
    w0 misses and the positive side leaves out."""
    rng = np.random.default_rng(seed)
    line = np.outer(rng.uniform(0.5, 2.0, 35), [1.0, 0.0, 0.0])
    cloud = rng.standard_normal((n_cloud, 3))
    below = rng.standard_normal((4 * n_negative, 3))
    below = below[below @ SPLIT_QUERY < -0.1][:n_negative]
    assert below.shape[0] == n_negative
    X = np.vstack([line, cloud, below])
    y = np.concatenate([line @ SPLIT_QUERY,
                        np.maximum(cloud @ (SPLIT_QUERY if cloud_w is None else cloud_w), 0.0),
                        np.ones(n_negative)])
    return LabeledDataset(X, y)


def separation_margin(samples, record, w0, w_star, start=None):
    """Clean-vs-corrupted separation statistic on the oracle's own
    transformed positive-side points; positive means the returned cut is
    guaranteed sound. In the images T x, a parameter w reads T^{-T} w."""
    T, mask = oracle_transform(samples, w0, start)
    XS = samples.x[mask]
    V = XS @ T.T
    U = V / np.linalg.norm(V, axis=1)[:, None]
    w0_t = np.linalg.solve(T.T, w0)
    ws_t = np.linalg.solve(T.T, w_star)
    active = U @ w0_t > 0.0  # derivative gate, strict at the kink
    clean = ~record.mask[mask]
    gap = np.abs(U @ (w0_t - ws_t))
    return float(gap[active & clean].sum() - gap[active & ~clean].sum())


class TestReluL1Loss:
    def test_realizable_at_target(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        w_star = np.array([1.0, -2.0, 0.5])
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        loss = relu_l1_loss(ds, w_star)
        assert type(loss) is float and loss == 0.0
        assert np.allclose(gd_subgradient(ds, w_star), 0.0)

    def test_hand_case_d1(self):
        ds = LabeledDataset(np.array([[1.0], [1.0]]), np.array([2.0, 0.0]))
        assert relu_l1_loss(ds, np.array([1.0])) == pytest.approx(1.0)
        # residual signs cancel: (-1 + 1)/2 * x = 0
        assert gd_subgradient(ds, np.array([1.0])) == pytest.approx([0.0])

    def test_kink_convention(self):
        # w.x = 0 lies on the closed positive side, so the point at the kink
        # steps: the descent's first step from w = 0 counts it
        ds = LabeledDataset(np.array([[1.0, 0.0]]), np.array([5.0]))
        assert np.array_equal(gd_subgradient(ds, np.array([0.0, 1.0])), [-1.0, 0.0])
        first = gd_relu_transformed(ds, "original", alpha=1.0, iters=1)[0]
        assert not first.skipped
        assert np.array_equal(first.w, [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_agreement(self, seed):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal(40) * 2.0
        w = rng.standard_normal(4)
        z = X @ w
        if np.min(np.abs(z)) <= 1e-3 or np.min(np.abs(np.maximum(z, 0) - y)) <= 1e-4:
            pytest.skip("kink too close for finite differences")
        grad = gd_subgradient(LabeledDataset(X, y), w)
        h = 1e-6
        fd = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (relu_l1_loss(LabeledDataset(X, y), w + e)
                     - relu_l1_loss(LabeledDataset(X, y), w - e)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


@pytest.mark.parametrize("function", [sep_oracle, relu_l1_loss])
@pytest.mark.parametrize("w", [np.ones(2), np.ones(4), np.ones((1, 3))])
def test_parameter_of_another_length_is_a_dimension_mismatch(function, w):
    # used to escape as numpy's "matmul: ... mismatch" ValueError
    ds = LabeledDataset(np.eye(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        function(ds, w)


class TestSepOracle:
    def test_accepts_target_on_realizable_data(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        w_star = np.array([2.0, 1.0, -1.0])
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        assert sep_oracle(ds, w_star).accepted

    def test_acceptance_needs_a_strict_majority_of_the_query_side(self):
        # w0 = 1 fits the 6 zero labels, a majority of all 10 points, but none
        # of the 4 points with w0.x > 0; w0 = 2 fits 3 of those 4, and w0 = 0
        # fits the 6 zero labels with no point on its side at all
        X = np.array([[-1.0]] * 6 + [[1.0]] * 4)
        ds = LabeledDataset(X, np.array([0.0] * 6 + [2.0, 2.0, 2.0, 5.0]))
        assert not sep_oracle(ds, np.array([1.0])).accepted
        assert sep_oracle(ds, np.array([2.0])).accepted
        assert not sep_oracle(ds, np.array([0.0])).accepted

    def test_halfspace_empty(self):
        x = -np.linspace(0.5, 1.5, 10)[:, None]
        ds = LabeledDataset(x, np.full(10, 5.0))
        with pytest.raises(HalfspaceEmpty):
            sep_oracle(ds, np.array([1.0]))

    def test_no_rows_raise_insufficient_points(self):
        # 2 * 0 fits >= 0 rows used to accept every query; the dataset now
        # refuses to exist
        with pytest.raises(InsufficientPoints):
            sep_oracle(LabeledDataset(np.zeros((0, 3)), np.zeros(0)), np.ones(3))

    def test_d1_base_case_sign(self):
        # majority of positive-side residuals pull one way: the returned
        # scalar direction must match that majority sign
        x = np.linspace(1.0, 2.0, 11)[:, None]
        w_star = np.array([3.0])
        y = np.maximum(x.ravel() * w_star, 0.0)
        ds = LabeledDataset(x, y)
        w0 = np.array([5.0])  # overshoots: residuals w0*x - y > 0
        res = sep_oracle(ds, w0)
        assert not res.accepted
        assert res.normal[0] > 0  # g.(w0 - w*) > 0 with w0 > w*
        w0 = np.array([1.0])  # undershoots
        res = sep_oracle(ds, w0)
        assert not res.accepted
        assert res.normal[0] < 0

    def test_fewer_than_d_positive_side_points_cut_from_their_span(self):
        # 2 points in R^3 have no radial-isotropic transform; their span is
        # the heavy subspace the oracle recurses into
        ds, w_star = two_points_on_the_query_side()
        w0 = -w_star
        res = sep_oracle(ds, w0)
        assert not res.accepted
        root, inner = res.diagnostics["recursion_trace"]
        assert root["outcome"] == "heavy-subspace" and root["heavy_dim"] == 2
        # the cut comes from V: the sub-call inside it cuts, and V-perp is never visited
        assert (inner["branch"], inner["outcome"], inner["dim"]) == ("root/V", "transform", 2)
        assert res.transform is None
        assert res.normal @ (w0 - w_star) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_a_rejected_complement_cuts_from_vperp(self, seed):
        # w0 fits the line, so the check inside V accepts; the cloud's
        # labels, deflated by w0's component in V, reject it on V-perp
        w_star = SPLIT_QUERY + np.array([0.0, 2.0, 1.0])
        ds = line_and_cloud(seed, cloud_w=w_star)
        res = sep_oracle(ds, SPLIT_QUERY)
        assert not res.accepted
        root, inner, outer = res.diagnostics["recursion_trace"]
        assert root["outcome"] == "heavy-subspace" and root["heavy_dim"] == 1
        assert (inner["branch"], inner["outcome"]) == ("root/V", "accepted")
        assert (outer["branch"], outer["outcome"], outer["dim"]) == ("root/Vperp", "transform", 2)
        assert res.diagnostics["oracle_calls"] == 3
        assert res.transform is None
        assert abs(res.normal[0]) <= 1e-12 * np.linalg.norm(res.normal)  # from span(e2, e3)
        assert res.normal @ (SPLIT_QUERY - w_star) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_a_positive_side_inside_v_accepts_with_a_vacuous_complement(self, seed):
        # without the cloud the positive side is the line alone
        ds = line_and_cloud(seed, n_cloud=0)
        res = sep_oracle(ds, SPLIT_QUERY)
        assert res.accepted
        assert res.normal is None
        # V holds every positive-side point, so its check is the whole answer
        assert [(e["branch"], e["depth"], e["outcome"])
                for e in res.diagnostics["recursion_trace"]] == [
            ("root", 0, "heavy-subspace"), ("root/V", 1, "accepted")]
        assert res.diagnostics["recursion_trace"][0]["heavy_fraction"] == 1.0
        assert res.diagnostics["oracle_calls"] == 2
        assert res.diagnostics["isotropy_iterations"] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_both_recursions_accepting_accepts(self, seed):
        # the cloud is labelled by w0 itself, so the deflated complement
        # accepts too, while 90 missed points keep w0 below a majority
        ds = line_and_cloud(seed, n_negative=90)
        res = sep_oracle(ds, SPLIT_QUERY)
        assert res.accepted
        assert res.normal is None
        assert [(e["branch"], e["depth"], e["outcome"])
                for e in res.diagnostics["recursion_trace"]] == [
            ("root", 0, "heavy-subspace"), ("root/V", 1, "accepted"),
            ("root/Vperp", 1, "accepted")]
        assert res.diagnostics["oracle_calls"] == 3
        assert res.diagnostics["isotropy_iterations"] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_and_oracle_traces_share_one_schema(self, seed):
        # both split a heavy root with linear._split and report it in one schema
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 3))
        X[:80, 1:] = 0.0  # 2/3 of the points on span(e1), more than 1/3
        linear_trace = recover_linear(LabeledDataset(X, X @ [3.0, -2.0, 1.0])).recursion_trace
        w_star = SPLIT_QUERY + np.array([0.0, 2.0, 1.0])
        diagnostics = sep_oracle(line_and_cloud(seed, cloud_w=w_star), SPLIT_QUERY).diagnostics
        oracle_trace = diagnostics["recursion_trace"]
        for trace, outcomes in ((linear_trace, ["heavy-subspace", "transform", "transform"]),
                                (oracle_trace, ["heavy-subspace", "accepted", "transform"])):
            assert [(e["branch"], e["depth"], e["outcome"]) for e in trace] == list(zip(
                ["root", "root/V", "root/Vperp"], [0, 1, 1], outcomes))
            for e in trace:
                assert {"branch", "depth", "dim", "n_points", "outcome"} <= set(e)
                assert ("isotropy" in e) == (e["outcome"] == "transform")
                assert ({"heavy_dim", "heavy_fraction"} <= set(e)) == \
                    (e["outcome"] == "heavy-subspace")
            assert [e["dim"] for e in trace] == [3, 1, 2]
        assert diagnostics["oracle_calls"] == len(oracle_trace)
        assert diagnostics["isotropy_iterations"] == sum(
            e["isotropy"]["iterations_used"] for e in oracle_trace if "isotropy" in e) > 0
        assert json.loads(json.dumps(diagnostics)) == diagnostics

    @pytest.mark.parametrize("seed", range(3))
    def test_recomputed_transform_reproduces_the_cut(self, seed):
        # the cut is A^{-1} times the mean signed image of the positive side,
        # summed as the product of the signs with the images the isotropy
        # iteration certified: the unit images of the unit points under the
        # transform A. In exact arithmetic it is the cut of A's symmetric
        # polar factor P, whose images are A's turned back.
        corrupted, _, w_star = shifted_relu_instance(seed, d=3, m=400, eta=0.25)
        w0 = w_star + np.random.default_rng(seed).standard_normal(3) * 3.0
        res = sep_oracle(corrupted, w0)
        (leaf,) = res.diagnostics["recursion_trace"]
        assert leaf["outcome"] == "transform"
        A, mask = oracle_transform(corrupted, w0)
        XS, yS = corrupted.x[mask], corrupted.y[mask]
        sgn = np.sign(XS @ w0 - yS)
        r = sgn @ _unit_rows(_unit_rows(XS) @ A.T) / mask.sum()
        assert mask.sum() == leaf["n_points"]
        assert np.array_equal(np.linalg.solve(A, r), res.normal)
        assert np.array_equal(res.transform, A)
        P = sym_polar(A)[0]
        r_P = sgn @ _unit_rows(XS @ P.T) / mask.sum()
        np.testing.assert_allclose(res.normal, np.linalg.solve(P, r_P), rtol=1e-9)

    def test_warm_start_leaves_a_heavy_positive_side_to_the_cold_call(self):
        # the warm call finds the span of the 2 points and is discarded; the
        # cold rerun recurses into V, whose sub-call starts cold
        ds, w_star = two_points_on_the_query_side()
        w0 = -w_star
        start = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        cold = sep_oracle(ds, w0)
        warm = sep_oracle(ds, w0, _start=start)
        assert [e["outcome"] for e in warm.diagnostics["recursion_trace"]] == [
            "heavy-subspace", "transform"]
        assert warm.transform is None
        assert np.array_equal(warm.normal, cold.normal)
        assert warm.diagnostics == cold.diagnostics

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_cut_is_made_in_the_composed_transform(self, seed):
        # from the previous cut's transform S the cut is T^{-1} r for T = A S,
        # A the transform of the images S x; in exact arithmetic that is
        # (P S)^{-1} r_P for A's symmetric polar factor P
        corrupted, _, w_star = shifted_relu_instance(seed, d=3, m=400, eta=0.25)
        rng = np.random.default_rng(seed)
        w_prev = w_star + rng.standard_normal(3) * 3.0
        start = sep_oracle(corrupted, w_prev).transform
        assert start is not None
        w0 = w_prev + rng.standard_normal(3) * 0.3
        res = sep_oracle(corrupted, w0, _start=start)
        T, mask = oracle_transform(corrupted, w0, start)
        assert np.array_equal(res.transform, T)
        XS, yS = corrupted.x[mask], corrupted.y[mask]
        V = XS @ T.T
        U = V / np.linalg.norm(V, axis=1)[:, None]
        r = (U * np.sign(XS @ w0 - yS)[:, None]).mean(axis=0)
        np.testing.assert_allclose(res.normal, np.linalg.solve(T, r), rtol=1e-9)
        PS = sym_polar(np.linalg.solve(start.T, T.T).T)[0] @ start  # A = T S^{-1}
        r_P = (_unit_rows(XS @ PS.T) * np.sign(XS @ w0 - yS)[:, None]).mean(axis=0)
        np.testing.assert_allclose(res.normal, np.linalg.solve(PS, r_P), rtol=1e-9)
        (leaf,) = res.diagnostics["recursion_trace"]
        assert res.diagnostics["isotropy_iterations"] == leaf["isotropy"]["iterations_used"]

    @pytest.mark.parametrize("seed", range(25))
    def test_separation_soundness(self, seed):
        corrupted, record, w_star = shifted_relu_instance(seed, d=2, m=400,
                                                          eta=0.25)
        rng = np.random.default_rng(5000 + seed)
        w0 = w_star + rng.standard_normal(2) * 3.0
        res = sep_oracle(corrupted, w0)
        if res.accepted or res.transform is None:
            pytest.skip("no full-dimensional cut at this query")
        margin = separation_margin(corrupted, record, w0, w_star)
        if margin <= 0:
            pytest.skip("separation statistic not satisfied for this draw")
        assert res.normal @ (w0 - w_star) > 0

    def test_query_set_finiteness(self):
        # distinct positive-side subsets over many queries stay below m^(d+1)
        rng = np.random.default_rng(3)
        m, d = 6, 2
        X = rng.standard_normal((m, d))
        patterns = set()
        for _ in range(500):
            w = rng.standard_normal(d) * rng.uniform(0.1, 10)
            patterns.add(tuple((X @ w >= 0).tolist()))
        assert len(patterns) <= m ** (d + 1)


class TestEllipsoid:
    def test_a_zero_target_ends_in_no_recovery(self):
        # every label is ReLU(0 . x) = 0: w = 0 has no positive side to
        # certify on, and any other w misses every label on its own side
        X = np.random.default_rng(0).standard_normal((50, 3))
        with pytest.raises(NoRecovery):
            ellipsoid_recover_relu(LabeledDataset(X, np.zeros(50)),
                                   EllipsoidConfig(initial_radius=5.0))

    @pytest.mark.parametrize("bound", [0, -3, 16.0])
    def test_bad_max_denominator_is_a_contract_violation(self, bound):
        with pytest.raises(ContractViolation, match="max_denominator"):
            EllipsoidConfig(initial_radius=1.0, max_denominator=bound)

    @pytest.mark.parametrize("name, value", [
        ("initial_radius", math.nan), ("initial_radius", math.inf), ("initial_radius", 0.0),
        ("initial_radius", 1e-320),
    ])
    def test_bad_search_bound_is_a_contract_violation(self, name, value):
        # NaN passes a "<= 0" test; an infinite radius makes an infinite shape
        with pytest.raises(ContractViolation, match=name):
            EllipsoidConfig(**{"initial_radius": 1.0, name: value})

    def test_no_rows_raise_insufficient_points(self):
        # used to certify w = 0, with inlier_fraction NaN; the dataset now
        # refuses to exist
        with pytest.raises(InsufficientPoints):
            ellipsoid_recover_relu(LabeledDataset(np.zeros((0, 3)), np.zeros(0)),
                                   EllipsoidConfig(initial_radius=1.0))

    def test_noiseless_exact_d2(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 2)) + np.array([1.0, 1.0])
        w_star = np.array([3.0, -2.0])
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        cfg = EllipsoidConfig(initial_radius=8.0, max_denominator=16)
        report = ellipsoid_recover_relu(ds, cfg)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)

    def test_desk_instance_with_l0_agreement(self):
        corrupted, _, w_star = shifted_relu_instance(seed=42)
        cfg = EllipsoidConfig(initial_radius=10.0, max_denominator=16)
        report = ellipsoid_recover_relu(corrupted, cfg)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        assert report.majority_certified
        # the subset-enumeration oracle agrees on a subsample
        every40 = np.arange(0, corrupted.m, 40)
        sub = LabeledDataset(corrupted.x[every40], corrupted.y[every40])
        l0_w, _ = l0_fit_bruteforce(sub, model="relu")
        assert snap_to_rational(l0_w, 16) == report.w_snapped

    def test_volume_decrease_and_certificate(self, monkeypatch):
        # the candidate certifies this instance, so the cuts are made without it
        ellipsoid_only(monkeypatch)
        corrupted, _, _ = shifted_relu_instance(seed=9)
        cfg = EllipsoidConfig(initial_radius=10.0, max_denominator=16)
        report = ellipsoid_recover_relu(corrupted, cfg)
        assert report.diagnostics["certified_by"] == "ellipsoid"
        vols = report.diagnostics["volume_logs"]
        d = corrupted.d
        decreases = -np.diff(vols)
        assert decreases.size == report.diagnostics["steps"] > 0
        assert np.all(decreases >= 1.0 / (2 * (d + 1)) - 1e-9)
        # the certified output fits a majority
        pred = np.maximum(corrupted.x @ report.w_snapped.to_floats(), 0.0)
        fits = np.abs(pred - corrupted.y) <= FIT_RTOL * (1 + np.abs(corrupted.y))
        assert 2 * fits.sum() >= corrupted.m

    def test_default_denominator_bound_via_ladder(self):
        # coarse denominators are tried first, so an integer target certifies
        # under the wide default bound without extra configuration
        rng = np.random.default_rng(13)
        X = rng.standard_normal((500, 3)) + 1.0
        w_star = np.array([3.0, -1.0, 2.0])
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        report = ellipsoid_recover_relu(ds, EllipsoidConfig(initial_radius=100.0))
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        assert report.w_snapped.max_denominator <= 10

    def test_halfspace_empty_surfaces(self):
        # labels unreachable by any ReLU drive the center negative until the
        # positive side empties out
        x = np.linspace(0.5, 1.5, 20)[:, None]
        ds = LabeledDataset(x, np.full(20, -5.0))
        cfg = EllipsoidConfig(initial_radius=4.0, max_denominator=4)
        with pytest.raises(HalfspaceEmpty) as stop:
            ellipsoid_recover_relu(ds, cfg)
        # like every other stop of the search, it says where the search stood
        diagnostics = stop.value.diagnostics
        assert set(diagnostics) == {"center", "radius", "steps"}
        assert diagnostics["center"] == [-2.0] and diagnostics["radius"] == 2.0
        assert diagnostics["steps"] == 1

    def test_norecovery_when_radius_too_small(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 2)) + 2.0
        w_star = np.array([5.0, 5.0])
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        cfg = EllipsoidConfig(initial_radius=1.0, max_denominator=4)
        # the candidate searches no ball: its certified half fit is the target
        report = ellipsoid_recover_relu(ds, cfg)
        assert report.diagnostics["certified_by"] == "candidate"
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        # |w*| > R: the target is outside the ellipsoid's search ball
        ellipsoid_only(monkeypatch)
        with pytest.raises((NoRecovery, HalfspaceEmpty)):
            ellipsoid_recover_relu(ds, cfg)

    def test_target_never_cut_on_verified_queries(self):
        # instrumented run: whenever the query passes the clean-vs-corrupted
        # separation check, the cut must keep the target inside
        self.walk_verified_queries(warm=False)

    def test_target_never_cut_on_verified_warm_queries(self):
        # the same walk with every call started from the previous cut's
        # transform, as ellipsoid_recover_relu runs it
        self.walk_verified_queries(warm=True)

    @staticmethod
    def walk_verified_queries(warm):
        corrupted, record, w_star = shifted_relu_instance(seed=77, d=2, m=600,
                                                          eta=0.25)
        # generic start: at the origin every point sits on the query's kink,
        # so the gated statistic is vacuous there by construction
        center, shape = np.array([3.7, -1.3]), 400.0 * np.eye(2)
        all_verified = True
        checked_cuts = 0
        start = None
        for _ in range(200):
            snapped = snap_to_rational(center, 16).to_floats()
            pred = np.maximum(corrupted.x @ snapped, 0.0)
            fits = np.abs(pred - corrupted.y) <= FIT_RTOL * (1 + np.abs(corrupted.y))
            if 2 * fits.sum() >= corrupted.m:
                break
            res = sep_oracle(corrupted, center, _start=start)
            assert not res.accepted
            if res.transform is not None:
                margin = separation_margin(corrupted, record, center,
                                           w_star, start)
                all_verified &= margin > 0
            center, shape = ellipsoid_cut(center, shape, res.normal)
            if warm:
                start = res.transform
            # the guarantee is conditional on every query so far verifying
            if all_verified:
                checked_cuts += 1
                gap = center - w_star
                quad = gap @ np.linalg.solve(shape, gap)
                assert quad <= 1.0 + 1e-9, "target cut away despite verified queries"
        assert checked_cuts >= 10  # the check must actually have bitten

    def test_report_counts_oracle_work(self, monkeypatch):
        # the criterion-5 family at the benchmark's size, which the candidate
        # certifies: without it, started from the previous cut, an oracle call
        # takes at most 2 isotropy iterations on average (about 4 from the identity)
        ellipsoid_only(monkeypatch)
        corrupted, _, w_star = shifted_relu_instance(seed=5, d=20, m=5000)
        cfg = EllipsoidConfig(initial_radius=30.0, max_denominator=16)
        report = ellipsoid_recover_relu(corrupted, cfg)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        diagnostics = report.diagnostics
        assert diagnostics["certified_by"] == "ellipsoid"
        assert diagnostics == ellipsoid_recover_relu(corrupted, cfg).diagnostics
        assert diagnostics["oracle_calls"] >= diagnostics["steps"] > 0
        assert diagnostics["isotropy_iterations"] <= 2 * diagnostics["oracle_calls"]

    @staticmethod
    def uncertified_at_the_origin():
        # 40% of the labels are 0; the search reaches the oracle once the candidate refuses
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 2)) + np.array([1.0, 1.0])
        ds = LabeledDataset(X, np.maximum(X @ np.array([3.0, -2.0]), 0.0))
        return ds, EllipsoidConfig(initial_radius=8.0, max_denominator=16)

    def test_indefinite_shape_raises_norecovery(self, monkeypatch):
        ellipsoid_only(monkeypatch)  # the candidate certifies the instance

        def indefinite_cut(center, shape, normal):
            return center - 0.1 * normal, np.diag([4.0, -1e-3])

        monkeypatch.setattr(relu, "ellipsoid_cut", indefinite_cut)
        with pytest.raises(NoRecovery, match="positive definiteness") as info:
            ellipsoid_recover_relu(*self.uncertified_at_the_origin())
        diagnostics = info.value.diagnostics
        assert diagnostics["steps"] == 1
        assert diagnostics["radius"] == 2.0
        assert json.loads(json.dumps(diagnostics)) == diagnostics

    def test_failed_cut_reports_its_step(self, monkeypatch):
        ellipsoid_only(monkeypatch)  # the candidate certifies the instance

        def zero_normal(samples, w0, **_):
            return SepResult(False, normal=np.zeros(2),
                             diagnostics={"oracle_calls": 1, "isotropy_iterations": 0})

        monkeypatch.setattr(relu, "sep_oracle", zero_normal)
        with pytest.raises(NoRecovery, match="non-positive ellipsoid norm") as info:
            ellipsoid_recover_relu(*self.uncertified_at_the_origin())
        assert info.value.diagnostics == {"center": [0.0, 0.0], "radius": 8.0, "steps": 0}

    @pytest.mark.parametrize("k", [0, 3])
    def test_isotropy_stall_reports_where_the_search_stood(self, k, monkeypatch):
        ellipsoid_only(monkeypatch)  # the candidate certifies the instance
        calls = []

        def stalls_at_step_k(samples, w0, **_):
            calls.append(w0.copy())
            if len(calls) > k:
                raise IsotropyStalled("stub: no transform and no heavy subspace")
            return SepResult(False, normal=np.array([1.0, 0.0]),
                             diagnostics={"oracle_calls": 1, "isotropy_iterations": 0})

        monkeypatch.setattr(relu, "sep_oracle", stalls_at_step_k)
        with pytest.raises(IsotropyStalled) as info:
            ellipsoid_recover_relu(*self.uncertified_at_the_origin())
        diagnostics = info.value.diagnostics
        assert set(diagnostics) == {"center", "radius", "steps"}
        assert diagnostics["steps"] == k
        assert diagnostics["center"] == calls[-1].tolist()
        # each cut along e1 of a d = 2 ellipsoid stretches it by sqrt(4/3) along e2
        assert diagnostics["radius"] == pytest.approx(8.0 * (4.0 / 3.0) ** (k / 2))

    THREE_POINTS = LabeledDataset(np.ones((3, 1)), [1.0, 2.0, 3.0])

    def test_zero_cut_raises_norecovery_where_the_search_stood(self):
        # the center bisects to exactly 2: residual signs +1, 0, -1 cancel
        with pytest.raises(NoRecovery, match="mean signed image of the positive side is zero") as info:
            ellipsoid_recover_relu(self.THREE_POINTS, EllipsoidConfig(initial_radius=8.0))
        assert info.value.diagnostics == {"center": [2.0], "radius": 2.0, "steps": 2}

    def test_radius_stop_raises_norecovery(self):
        with pytest.raises(NoRecovery, match="fell below") as info:
            ellipsoid_recover_relu(self.THREE_POINTS, EllipsoidConfig(initial_radius=7.0))
        diagnostics = info.value.diagnostics
        assert diagnostics["steps"] == 30
        assert diagnostics["radius"] < relu.DELTA_MIN_RTOL * 7.0
        assert json.loads(json.dumps(diagnostics)) == diagnostics

    def test_step_budget_stop_raises_norecovery(self, monkeypatch):
        # every cut is along e1: the shape shrinks along e1 and grows along e2,
        # so the radius never reaches its floor, and the budget
        # ceil(2(d+1)d ln(1/DELTA_MIN_RTOL)) + 100, 349 steps at d = 2, ends the search
        ellipsoid_only(monkeypatch)
        cut_along(monkeypatch, [1.0, 0.0])
        with pytest.raises(NoRecovery, match="no certified parameter within 349 steps") as info:
            ellipsoid_recover_relu(*self.uncertified_at_the_origin())
        diagnostics = info.value.diagnostics
        assert diagnostics["steps"] == 349
        assert diagnostics["radius"] > 8.0
        assert json.loads(json.dumps(diagnostics)) == diagnostics

    def test_volume_logs_are_half_the_logdet_after_each_cut(self, monkeypatch):
        shapes = [30.0**2 * np.eye(3)]

        def recording_cut(center, shape, normal):
            new = ellipsoid_cut(center, shape, normal)
            shapes.append(new[1])
            return new

        monkeypatch.setattr(relu, "ellipsoid_cut", recording_cut)
        corrupted, _ = constant_relu_instance(0)  # the candidate refuses here
        report = ellipsoid_recover_relu(corrupted, EllipsoidConfig(30.0, max_denominator=16))
        volumes = report.diagnostics["volume_logs"]
        assert len(volumes) == report.diagnostics["steps"] + 1 == len(shapes) > 1
        for volume, shape in zip(volumes, shapes):
            sign, logdet = np.linalg.slogdet(shape)
            assert sign == 1.0 and volume == pytest.approx(0.5 * logdet, abs=1e-9)

    def test_accepted_center_that_fails_its_snap_raises_norecovery(self):
        # the oracle accepts w = 1/2, which no integer snap (max_denominator 1) keeps
        ds = LabeledDataset(np.ones((3, 1)), np.full(3, 0.5))
        with pytest.raises(NoRecovery, match="oracle accepted the center") as info:
            ellipsoid_recover_relu(ds, EllipsoidConfig(initial_radius=2.0, max_denominator=1))
        diagnostics = info.value.diagnostics
        assert diagnostics["center"] == [0.5] and diagnostics["steps"] == 2
        assert diagnostics["oracle"]["recursion_trace"] == [
            {"branch": "root", "depth": 0, "dim": 1, "n_points": 3, "fit_count": 3,
             "outcome": "accepted"}]
        assert json.loads(json.dumps(diagnostics)) == diagnostics

    def test_cut_geometry(self):
        shape = 4.0 * np.eye(2)
        center, new_shape = ellipsoid_cut(np.zeros(2), shape, np.array([1.0, 0.0]))
        assert center[0] < 0  # moved away from the cut side
        assert np.linalg.det(new_shape) < np.linalg.det(shape)
        # cut keeps {w1 <= 0}: the kept halfplane still intersects the ellipsoid
        assert center[0] + math.sqrt(new_shape[0, 0]) > 0

    def test_d1_cut_halves(self):
        center, shape = ellipsoid_cut(np.zeros(1), np.array([[4.0]]), np.array([1.0]))
        assert shape[0, 0] == pytest.approx(1.0)  # the radius halves, 2 -> 1
        assert center[0] == pytest.approx(-1.0)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
    def test_cut_keeps_the_half_ellipsoid_at_the_minimal_volume(self, seed, d):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((d, d))
        shape = 10.0 ** rng.uniform(-2, 2) * (G @ G.T + 0.1 * np.eye(d))
        center = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        normal = rng.standard_normal(d)
        new_center, new_shape = ellipsoid_cut(center, shape, normal)
        # points of the old ellipsoid, half of them on its boundary, on the kept side
        u = rng.standard_normal((400, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        u[200:] *= rng.uniform(size=(200, 1)) ** (1.0 / d)
        w = center + u @ np.linalg.cholesky(shape).T
        kept = w[(w - center) @ normal <= 0.0]
        gap = kept - new_center
        quad = np.einsum("ij,ij->i", gap, np.linalg.solve(new_shape, gap.T).T)
        assert np.all(quad <= 1.0 + 1e-9)
        # the Lowner-John ellipsoid of the half: det ratio ((d/(d+1)) (d^2/(d^2-1))^((d-1)/2))^2
        ratio = 0.25 if d == 1 else ((d / (d + 1)) * (d * d / (d * d - 1.0)) ** ((d - 1) / 2)) ** 2
        sign, logdet = np.linalg.slogdet(new_shape)
        assert sign == 1.0
        assert logdet - np.linalg.slogdet(shape)[1] == pytest.approx(math.log(ratio), abs=1e-10)

    @pytest.mark.parametrize("seed, d, m", [(0, 3, 2000), (1, 3, 2000), (20, 3, 2000),
                                            (21, 3, 2000), (5, 20, 5000)])
    def test_candidate_certifies_the_shifted_family_before_any_step(self, seed, d, m,
                                                                    monkeypatch):
        corrupted, _, w_star = shifted_relu_instance(seed, d=d, m=m)
        cfg = EllipsoidConfig(initial_radius=30.0, max_denominator=16)
        report = ellipsoid_recover_relu(corrupted, cfg)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        diagnostics = report.diagnostics
        # the least-squares start on the positive labels fits them all and certifies
        assert diagnostics["certified_by"] == "candidate"
        assert diagnostics["irls_rounds"] == 0
        assert diagnostics["steps"] == diagnostics["oracle_calls"] == 0
        assert diagnostics["isotropy_iterations"] == 0
        assert diagnostics["final_radius"] == 30.0
        assert len(diagnostics["volume_logs"]) == 1
        assert report.majority_certified and report.inlier_fraction >= 0.5
        # the ellipsoid alone reaches the same snapped answer
        ellipsoid_only(monkeypatch)
        alone = ellipsoid_recover_relu(corrupted, cfg)
        assert alone.diagnostics["steps"] > 0
        assert report.w_snapped == alone.w_snapped

    @pytest.mark.parametrize("seed, d, m", [(0, 3, 2000), (1, 3, 2000), (20, 3, 2000),
                                            (21, 3, 2000), (5, 20, 5000)])
    def test_a_rewritten_positive_label_defers_the_candidate_to_a_half_fit(self, seed, d, m):
        # the start then misses a row it was fit on, so round 0 certifies nothing;
        # the reweighted rounds rank that row out and a half fit answers alike
        corrupted, _, w_star = shifted_relu_instance(seed, d=d, m=m)
        y = corrupted.y.copy()
        y[np.flatnonzero(y > 0.0)[0]] *= 3.0
        cfg = EllipsoidConfig(initial_radius=30.0, max_denominator=16)
        report = ellipsoid_recover_relu(LabeledDataset(corrupted.x, y), cfg)
        diagnostics = report.diagnostics
        assert diagnostics["certified_by"] == "candidate" and diagnostics["steps"] == 0
        assert diagnostics["irls_rounds"] >= 2 and diagnostics["irls_rounds"] % 2 == 0
        assert report.w_snapped == ellipsoid_recover_relu(corrupted, cfg).w_snapped
        assert report.w_snapped.to_fractions() == fractions_of(w_star)

    def test_candidate_answers_as_the_ellipsoid_does_on_centered_draws(self, monkeypatch):
        # 20% of the labels negated: a negated label is not positive, so the
        # start fits only clean rows; w = 0 has no positive side and never passes
        config = EllipsoidConfig(initial_radius=30, max_denominator=16)
        for i in range(10):
            corrupted, _ = centered_relu_instance(i)
            report = ellipsoid_recover_relu(corrupted, config)
            with monkeypatch.context() as patch:
                ellipsoid_only(patch)
                alone = ellipsoid_recover_relu(corrupted, config)
            assert report.w_snapped == alone.w_snapped, f"instance {i}"
            assert report.diagnostics["certified_by"] == "candidate"
            assert report.diagnostics["irls_rounds"] == report.diagnostics["steps"] == 0
            assert alone.diagnostics["steps"] > 0

    def test_candidate_refuses_constant_labels_and_the_ellipsoid_answers(self, monkeypatch):
        # 40% of the labels set to 1, about 4/7 of the positive ones: the
        # candidate refuses after all its rounds and the ellipsoid answers
        # (draw 6 is left out: there a half fit certifies the target at round 2)
        config = EllipsoidConfig(initial_radius=30, max_denominator=16)
        for i in [0, 1, 2, 3, 4, 5, 7, 8, 9, 10]:
            corrupted, _ = constant_relu_instance(i)
            report = ellipsoid_recover_relu(corrupted, config)
            with monkeypatch.context() as patch:
                ellipsoid_only(patch)
                alone = ellipsoid_recover_relu(corrupted, config)
            assert report.w_snapped == alone.w_snapped, f"instance {i}"
            assert report.diagnostics["certified_by"] == "ellipsoid"
            assert report.diagnostics["irls_rounds"] == IRLS_ROUNDS
            assert report.diagnostics["steps"] == alone.diagnostics["steps"] > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_candidate_refuses_positive_labels_that_do_not_span(self, seed):
        # two rows 4 units along w*/|w*| and three 4 units against it: the two
        # positive labels cannot span R^3, the start raises LinAlgError and the
        # ellipsoid answers
        rng = np.random.default_rng(seed)
        w_star = np.array([2.0, -1.0, 1.0])
        side = np.array([1.0, 1.0, -1.0, -1.0, -1.0])[:, None]
        X = rng.standard_normal((5, 3)) + 4.0 * side * w_star / np.linalg.norm(w_star)
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        assert np.count_nonzero(ds.y > 0.0) == 2
        report = ellipsoid_recover_relu(ds, EllipsoidConfig(initial_radius=5.0,
                                                            max_denominator=4))
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        diagnostics = report.diagnostics
        assert diagnostics["certified_by"] == "ellipsoid"
        assert diagnostics["irls_rounds"] == 0
        assert diagnostics["oracle_calls"] >= diagnostics["steps"] > 0

    def test_the_warm_start_recovers_targets_a_cold_search_misses(self, monkeypatch):
        # on m = 5 rows, without the candidate, the ellipsoid answers every
        # draw. Each oracle call started from the previous cut's transform, it
        # recovers 14 of 18 targets; every call started from the identity, 11,
        # all among the 14
        ellipsoid_only(monkeypatch)
        config = EllipsoidConfig(30.0, 16)

        def recovered():
            hits = set()
            for seed in range(18):
                corrupted, _, w_star = shifted_relu_instance(seed, d=3, m=5)
                try:
                    report = ellipsoid_recover_relu(corrupted, config)
                except RadregError:
                    continue
                assert report.diagnostics["certified_by"] == "ellipsoid"
                if report.w_snapped.to_fractions() == fractions_of(w_star):
                    hits.add(seed)
            return hits

        warm = recovered()
        oracle = relu.sep_oracle

        def cold(samples, w0, _depth=0, _start=None, **kwargs):
            return oracle(samples, w0, _depth, **kwargs)

        monkeypatch.setattr(relu, "sep_oracle", cold)
        cold_hits = recovered()
        assert (len(warm), len(cold_hits)) == (14, 11)
        assert cold_hits < warm

    def test_the_row_scales_are_taken_once_per_fit(self, monkeypatch):
        # every step's oracle call reads the fit's row norms, scales and scaled
        # labels; taken again per call they measurably slow a centered d=3 search
        corrupted, _ = constant_relu_instance(0)
        calls = []
        row_scales = relu._row_scales

        def counted(X, y):
            calls.append(len(y))
            return row_scales(X, y)

        monkeypatch.setattr(relu, "_row_scales", counted)
        report = ellipsoid_recover_relu(corrupted, EllipsoidConfig(30.0, max_denominator=16))
        assert report.diagnostics["certified_by"] == "ellipsoid"
        assert report.diagnostics["oracle_calls"] == report.diagnostics["steps"] >= 2
        assert calls == [corrupted.m]

    def test_centered_covariates_certify_the_target_or_raise(self):
        # w = 0 fits every clean zero label, about half the points, but it
        # has no positive side to fit a strict majority of
        config = EllipsoidConfig(initial_radius=30, max_denominator=16)
        for i in range(10):
            corrupted, w_star = centered_relu_instance(i)
            try:
                report = ellipsoid_recover_relu(corrupted, config)
            except RadregError:
                continue  # a typed refusal is an answer
            assert report.w_snapped.to_fractions() == fractions_of(w_star), f"instance {i}"


RESCALED_RELU_DRAWS = {
    # the candidate answers
    "shifted": ("candidate", [lambda seed=seed: shifted_relu_instance(seed)[0]
                              for seed in range(10)]),
    "centered-flip": ("candidate", [lambda i=i: centered_relu_instance(i)[0] for i in range(6)]),
    # the candidate refuses and the ellipsoid answers
    "centered": ("ellipsoid", [lambda i=i: constant_relu_instance(i)[0] for i in range(6)]),
}


@pytest.mark.parametrize("c", [1e-3, 7.0, 1e3])
@pytest.mark.parametrize("family", sorted(RESCALED_RELU_DRAWS))
def test_rescaling_one_row_by_c_leaves_the_relu_output_unchanged(family, c):
    # ReLU(w.(c x)) = c ReLU(w.x) for c > 0, and the certificate judges each
    # point on (x/|x|, y/|x|), so scaling one (x_i, y_i) changes nothing
    certified_by, draws = RESCALED_RELU_DRAWS[family]
    config = EllipsoidConfig(initial_radius=30.0, max_denominator=16)
    for k, draw in enumerate(draws):
        samples = draw()
        i = int(np.random.default_rng(k).integers(samples.m))
        x, y = samples.x.copy(), samples.y.copy()
        x[i] *= c
        y[i] *= c
        expected = ellipsoid_recover_relu(samples, config)
        assert expected.diagnostics["certified_by"] == certified_by
        assert ellipsoid_recover_relu(LabeledDataset(x, y), config).w_snapped == \
            expected.w_snapped, f"draw {k}, row {i}"


SMALL_CONFIG = EllipsoidConfig(initial_radius=10.0, max_denominator=16)


def small_shifted_instance(seed):
    corrupted, _, w_star = shifted_relu_instance(seed, d=3, m=400, eta=0.25)
    return corrupted, w_star


@pytest.mark.parametrize("seed", range(3))
def test_scaling_every_pair_down_changes_nothing(seed):
    # the certificate judges (x/|x|, y/|x|): on raw values FIT_RTOL's floor
    # of 1e-7 would pass every point at scale 2^-30 and certify w = 0
    corrupted, w_star = small_shifted_instance(seed)
    s = 2.0 ** -30
    report = ellipsoid_recover_relu(LabeledDataset(corrupted.x * s, corrupted.y * s),
                                    SMALL_CONFIG)
    assert report.w_snapped.to_fractions() == fractions_of(w_star)
    expected = ellipsoid_recover_relu(corrupted, SMALL_CONFIG)
    assert report.diagnostics == expected.diagnostics
    assert report.inlier_fraction == expected.inlier_fraction


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.integers(-40, 40), min_size=400, max_size=400))
def test_relu_per_point_rescaling_leaves_the_snapped_output_unchanged(seed, exponents):
    # ReLU is positively homogeneous and radial isotropy normalizes each
    # point, so scaling one (x_i, y_i) pair by c > 0 must not change the
    # output; powers of 2 scale exactly
    corrupted, _ = small_shifted_instance(seed)
    scale = 2.0 ** np.array(exponents)
    rescaled = LabeledDataset(corrupted.x * scale[:, None], corrupted.y * scale)
    expected = ellipsoid_recover_relu(corrupted, SMALL_CONFIG).w_snapped
    assert ellipsoid_recover_relu(rescaled, SMALL_CONFIG).w_snapped == expected


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(400)))
def test_relu_row_permutation_leaves_the_snapped_output_unchanged(seed, perm):
    corrupted, _ = small_shifted_instance(seed)
    permuted = LabeledDataset(corrupted.x[list(perm)], corrupted.y[list(perm)])
    expected = ellipsoid_recover_relu(corrupted, SMALL_CONFIG).w_snapped
    assert ellipsoid_recover_relu(permuted, SMALL_CONFIG).w_snapped == expected


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(3)),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3))
def test_relu_signed_column_permutation_moves_the_snapped_output_alike(seed, perm, signs):
    # x -> T x with T[i, perm[i]] = signs[i] maps w to T w and keeps every
    # w.x, so every ReLU label stays as it is
    corrupted, _ = small_shifted_instance(seed)
    mapped = LabeledDataset(corrupted.x[:, list(perm)] * np.array(signs, dtype=float),
                            corrupted.y)
    w = ellipsoid_recover_relu(corrupted, SMALL_CONFIG).w_snapped.to_fractions()
    expected = tuple(s * w[p] for s, p in zip(signs, perm))
    assert ellipsoid_recover_relu(mapped, SMALL_CONFIG).w_snapped.to_fractions() == expected


class TestGdReluTransformed:
    def make_instance(self, seed=0, d=4, m=120):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d)) + 0.5
        w_star = rng.integers(-3, 4, size=d).astype(float)
        ds = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
        return ds, w_star

    def test_original_mode_is_plain_subgradient_descent(self):
        ds, w_star = self.make_instance(seed=1)
        alpha, w0 = 0.05, np.ones(4)
        step = gd_step(ds, "original", w0)
        mask = ds.x @ w0 >= 0
        Xp, yp = ds.x[mask], ds.y[mask]
        grad = (Xp * np.sign(Xp @ w0 - yp)[:, None]).mean(axis=0)
        assert np.allclose(w0 - alpha * step, w0 - alpha * grad)

    @pytest.mark.parametrize("mode", relu.GD_MODES)
    def test_the_row_norms_are_taken_once_per_descent(self, mode, monkeypatch):
        # the positive side of each iterate is judged on the same row norms;
        # taken again per iteration they measurably slow an 'original' descent
        ds, _ = self.make_instance(seed=1)
        calls = []
        row_norms = relu._row_norms

        def counted(V):
            calls.append(V.shape)
            return row_norms(V)

        monkeypatch.setattr(relu, "_row_norms", counted)
        gd_relu_transformed(ds, mode, alpha=0.05, iters=20)
        assert calls == [ds.x.shape]

    @pytest.mark.parametrize("mode", relu.GD_MODES)
    def test_each_iterate_takes_the_single_step_at_the_last(self, mode):
        # the single-step tests read gd_step; the descent must take that step
        ds, _ = self.make_instance(seed=1)
        w = np.zeros(4)
        for it in gd_relu_transformed(ds, mode, alpha=0.05, iters=20):
            step = gd_step(ds, mode, w)
            assert it.skipped == (step is None)
            if step is not None:
                w = w - 0.05 * step
            assert np.array_equal(it.w, w)

    def test_trajectory_shape_and_distance(self):
        ds, w_star = self.make_instance(seed=2)
        traj = gd_relu_transformed(ds, "radial-isotropic", iters=30,
                                   w_star=w_star)
        assert len(traj) == 30
        assert traj[-1].distance <= traj[0].distance
        assert all(np.isfinite(s.loss) for s in traj)

    def test_reference_configuration_runs(self):
        # the published setup: d=30, 240 mixture samples, eta=0.4 gated flip,
        # w = 0 at the start, step 1 transformed / 1/465 original
        from radreg.bench import SyntheticSpec, make_synthetic_dataset
        from radreg.noise import gated_flip

        spec = SyntheticSpec(d=30, n=240, seed=11)
        clean = make_synthetic_dataset(spec, model="relu")
        corrupted, _ = corrupt_massart(
            clean, MassartSpec(0.4, gated_flip(15.0), seed=12)
        )
        orig = gd_relu_transformed(corrupted, "original", alpha=1.0 / 465.0,
                                   iters=5, w_star=spec.w_star)
        rad = gd_relu_transformed(corrupted, "radial-isotropic", alpha=1.0,
                                  iters=5, w_star=spec.w_star)
        assert all(np.isfinite(s.loss) for s in orig + rad)
        assert not any(s.skipped for s in orig)

    def test_normalized_mode_steps_on_unit_rows(self):
        ds, _ = self.make_instance(seed=1)
        alpha, w0 = 0.05, np.ones(4)
        step = gd_step(ds, "normalized", w0)
        mask = ds.x @ w0 >= 0
        norms = np.linalg.norm(ds.x[mask], axis=1)
        Xt, yt = ds.x[mask] / norms[:, None], ds.y[mask] / norms
        grad = (Xt * np.sign(Xt @ w0 - yt)[:, None]).mean(axis=0)
        assert np.allclose(w0 - alpha * step, w0 - alpha * grad, rtol=0.0, atol=1e-12)

    def test_isotropic_mode_steps_in_whitened_coordinates(self):
        # A = S^{-1/2} for the positive side's second moment S; the step is
        # taken at w' = A^{-1} w and mapped back by A
        ds, _ = self.make_instance(seed=1)
        alpha, w0 = 0.05, np.ones(4)
        step = gd_step(ds, "isotropic", w0)
        mask = ds.x @ w0 >= 0
        Xp, yp = ds.x[mask], ds.y[mask]
        A = scipy.linalg.sqrtm(np.linalg.inv(Xp.T @ Xp / len(Xp))).real
        Xt, wp = Xp @ A.T, np.linalg.solve(A, w0)
        grad = (Xt * np.sign(Xt @ wp - yp)[:, None]).mean(axis=0)
        assert step is not None
        assert np.allclose(w0 - alpha * step, w0 - alpha * A @ grad, rtol=0.0, atol=1e-9)

    def test_fewer_than_d_positive_side_points_skip_the_step(self):
        ds, w_star = two_points_on_the_query_side()
        assert gd_step(ds, "radial-isotropic", -w_star) is None

    def test_isotropic_mode_skips_a_positive_side_that_does_not_span(self):
        ds, w_star = two_points_on_the_query_side()
        assert gd_step(ds, "isotropic", -w_star) is None

    @pytest.mark.parametrize("ratio, skipped", [(0.99e-10, True), (1.01e-10, False)])
    def test_isotropic_mode_skips_a_step_at_the_eigenvalue_cutoff(self, ratio, skipped):
        # a full-rank positive side whose second moment diag(1, c^2) / 2 has
        # lambda_min / lambda_max = ratio, just either side of relu.PSD_RTOL
        c = math.sqrt(ratio)
        ds = LabeledDataset(np.array([[1.0, 0.0], [0.0, c]]), np.array([1.0, -1.0]))
        traj = gd_relu_transformed(ds, "isotropic", alpha=1.0, iters=1)
        assert traj[0].skipped == skipped
        # signs (-1, 1), so the step M^{-1} (s @ X) / 2 is (-1, 1/c)
        expected = np.zeros(2) if skipped else np.array([1.0, -1.0 / c])
        np.testing.assert_allclose(traj[0].w, expected, rtol=1e-12)

    def test_default_alpha_for_original_tracks_scale(self):
        ds, _ = self.make_instance(seed=3)
        big = LabeledDataset(ds.x * 10.0, ds.y * 10.0)
        t_small = gd_relu_transformed(ds, "original", iters=2)
        t_big = gd_relu_transformed(big, "original", iters=2)
        # auto step keeps updates bounded despite the 10x covariates
        assert np.isfinite(t_big[-1].loss)
        assert np.linalg.norm(t_big[0].w) < 10 * np.linalg.norm(t_small[0].w) + 1

    @staticmethod
    def mixture_instance(seed):
        """d=10, 240 mixture samples, eta=0.4 gated flip."""
        from radreg.bench import SyntheticSpec, make_synthetic_dataset
        from radreg.noise import gated_flip

        spec = SyntheticSpec(d=10, n=240, seed=7000 + seed)
        clean = make_synthetic_dataset(spec, model="relu")
        corrupted, _ = corrupt_massart(
            clean, MassartSpec(0.4, gated_flip(5.0), seed=7100 + seed)
        )
        return corrupted, spec.w_star

    @pytest.mark.parametrize("seed", range(6))
    def test_radial_beats_original_usually(self, seed):
        corrupted, w_star = self.mixture_instance(seed)
        d_orig = gd_relu_transformed(corrupted, "original", iters=150,
                                     w_star=w_star)[-1].distance
        d_rad = gd_relu_transformed(corrupted, "radial-isotropic", iters=150,
                                    w_star=w_star)[-1].distance
        assert d_rad < d_orig

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mixture", [False, True])
    def test_radial_step_is_the_polar_factors(self, seed, mixture, monkeypatch):
        # a transform A = Q P, Q orthogonal, turns the images and w' = A^{-T} w
        # by Q, so A^T g' is the step P^T g_P of its symmetric polar factor P
        ds, w_star = self.mixture_instance(seed) if mixture else self.make_instance(seed=seed)
        traj = gd_relu_transformed(ds, "radial-isotropic", iters=150, w_star=w_star)
        isotropize = relu.radial_isotropize

        def polar_factor(points, *args):
            t = isotropize(points, *args)
            if not isinstance(t, RadialTransform):
                return t
            P = sym_polar(t.matrix)[0]
            return dataclasses.replace(t, matrix=P, images=_unit_rows(_unit_rows(points) @ P.T))

        monkeypatch.setattr(relu, "radial_isotropize", polar_factor)
        reference = gd_relu_transformed(ds, "radial-isotropic", iters=150, w_star=w_star)
        assert [s.skipped for s in traj] == [s.skipped for s in reference]
        for step, ref in zip(traj, reference):
            np.testing.assert_allclose(step.w, ref.w, rtol=0.0, atol=1e-9)

    @staticmethod
    def whitened_reference(ds, mode, alpha, iters, whitening):
        """The descent in transformed coordinates: whiten the positive side's
        points and labels by A and its scales, take the l1 subgradient at
        w' = A^{-T} w on the images, and map it back by A^T."""
        X, y = ds.x, ds.y
        w, ws = np.zeros(X.shape[1]), []
        for _ in range(iters):
            mask = relu.positive_side_mask(np.linalg.norm(X, axis=1), w, X @ w)
            Xp, yp = X[mask], y[mask]
            A = None
            if mode in ("original", "normalized") and mask.any():
                A = np.eye(X.shape[1])
            elif mode == "isotropic" and mask.any():
                M = Xp.T @ Xp / len(Xp)
                evals = np.linalg.eigvalsh(M)
                if evals[0] > relu.PSD_RTOL * evals[-1]:
                    A = whitening(M)
            elif mode == "radial-isotropic" and mask.any():
                iso = relu.radial_isotropize(Xp)
                if isinstance(iso, RadialTransform):
                    A = iso.matrix
            if A is not None:
                U = Xp @ A.T
                scale = (np.linalg.norm(U, axis=1) if mode in ("normalized", "radial-isotropic")
                         else np.ones(len(yp)))
                U, yt, wp = U / scale[:, None], yp / scale, np.linalg.solve(A.T, w)
                w = w - alpha * A.T @ (np.sign(U @ wp - yt) @ U / len(yt))
            ws.append(w.copy())
        return ws

    @staticmethod
    def principal_root(M):
        evals, evecs = np.linalg.eigh(M)
        return (evecs / np.sqrt(evals)) @ evecs.T

    @pytest.mark.parametrize("mode", relu.GD_MODES)
    @pytest.mark.parametrize("seed", range(2))
    def test_each_mode_steps_by_the_subgradient_of_its_images(self, seed, mode):
        # the step reads its signs from the raw residuals; on the images they
        # are the same residuals over positive scales
        ds, _ = self.mixture_instance(seed)
        alpha = 1.0 if mode != "original" else 1e-3
        traj = gd_relu_transformed(ds, mode, alpha=alpha, iters=50)
        reference = self.whitened_reference(ds, mode, alpha, 50, self.principal_root)
        for step, ref in zip(traj, reference):
            np.testing.assert_allclose(step.w, ref, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("whitening", ["cholesky", "rotated"])
    @pytest.mark.parametrize("seed", range(3))
    def test_isotropic_step_does_not_depend_on_the_whitening(self, seed, whitening):
        # every A with A M A^T = I has A^T A = M^{-1}: the Cholesky inverse
        # L^{-1} (M = L L^T) and Q M^{-1/2} for an orthogonal Q take the
        # principal root's step
        ds, _ = self.mixture_instance(seed)
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((10, 10)))[0]

        def whiten(M):
            if whitening == "cholesky":
                return np.linalg.inv(np.linalg.cholesky(M))
            return Q @ self.principal_root(M)

        traj = gd_relu_transformed(ds, "isotropic", alpha=1.0, iters=50)
        reference = self.whitened_reference(ds, "isotropic", 1.0, 50, whiten)
        for step, ref in zip(traj, reference):
            np.testing.assert_allclose(step.w, ref, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("mode", ["normalized", "radial-isotropic"])
    @pytest.mark.parametrize("seed", range(3))
    def test_per_point_powers_of_2_leave_the_trajectory_unchanged(self, seed, mode):
        # both modes see each pair only as (x/|x|, y/|x|) and the raw residual
        # signs, and scaling by a power of 2 is exact
        ds, _ = self.mixture_instance(seed)
        scale = 2.0 ** np.random.default_rng(seed).integers(-30, 31, size=len(ds.y))
        rescaled = LabeledDataset(ds.x * scale[:, None], ds.y * scale)
        reference = gd_relu_transformed(ds, mode, iters=50)
        for step, ref in zip(gd_relu_transformed(rescaled, mode, iters=50), reference):
            assert step.skipped == ref.skipped
            assert np.array_equal(step.w, ref.w)

    def test_parameter_of_another_dimension_is_rejected(self):
        ds, _ = self.make_instance(d=4)
        with pytest.raises(DimensionMismatch, match="w_star"):
            gd_relu_transformed(ds, "original", iters=1, w_star=np.ones(3))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
    def test_step_size_must_be_positive_and_finite(self, alpha):
        # NaN would give a NaN trajectory, and a negative step an ascent
        ds, _ = self.make_instance()
        with pytest.raises(ContractViolation, match="alpha"):
            gd_relu_transformed(ds, "radial-isotropic", alpha=alpha, iters=1)

    def test_default_step_on_all_zero_covariates_is_a_contract_violation(self):
        # the default 1/mean|x|^2 of mode 'original' used to divide by zero
        ds = LabeledDataset(np.zeros((5, 2)), np.ones(5))
        with pytest.raises(ContractViolation, match="alpha"):
            gd_relu_transformed(ds, "original", iters=1)

    @pytest.mark.parametrize("mode", relu.GD_MODES)
    def test_no_rows_raise_insufficient_points(self, mode):
        # every step would be skipped and every loss a mean of no residuals;
        # the dataset refuses to exist before the descent sees it
        with pytest.raises(InsufficientPoints):
            gd_relu_transformed(LabeledDataset(np.zeros((0, 3)), np.zeros(0)), mode,
                                iters=1, alpha=1.0)

    @pytest.mark.parametrize("iters", [2.5, 0])
    def test_iteration_count_must_be_an_integer_of_at_least_1(self, iters):
        ds, _ = self.make_instance()
        with pytest.raises(ContractViolation, match="iters"):
            gd_relu_transformed(ds, "original", iters=iters)

    def test_bad_mode_rejected(self):
        ds, _ = self.make_instance()
        with pytest.raises(Exception):
            gd_relu_transformed(ds, "bogus", iters=1)
