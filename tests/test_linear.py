import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radreg import l1, linear
from radreg.bench import SyntheticSpec, make_synthetic_dataset
from radreg.data import LabeledDataset
from radreg.errors import ContractViolation, InsufficientPoints, NonIdentifiable
from radreg.isotropy import (
    DETECT_EVERY,
    NEWTON_AFTER,
    _unit_rows,
    certifying_gamma,
    radial_isotropize,
)
from radreg.l1 import l1_fit_linear, snap_to_rational
from radreg.linear import recover_linear
from radreg.noise import FlipNegate, MassartSpec, Scale, corrupt_massart, gated_flip

from oracles import l0_fit_bruteforce


def fractions_of(vec):
    return tuple(Fraction(v) for v in vec)


def realizable(seed, m, d, w_star):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    return LabeledDataset(X, X @ np.asarray(w_star, dtype=float))


def planted_heavy_instance(seed, m=300, on_line=180, w_star=(3.0, -2.0),
                           eta=0.2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, 2))
    X[:on_line, 1] = 0.0
    X = X[rng.permutation(m)]
    clean = LabeledDataset(X, X @ np.asarray(w_star))
    return corrupt_massart(clean, MassartSpec(eta, FlipNegate(), seed + 1))[0]


def heavy_recursion_instance(seed, d=16, m=1000):
    """The benchmark's recursion family: 30% of the rows in span(e1, e2) and
    20% more in span(e1..e6), so the root's heavy plane leaves 200 of 700
    rows on 4 of the 14 dims of V-perp, exactly 4/14."""
    rng = np.random.default_rng(seed)
    w_star = rng.integers(-5, 6, size=d).astype(float)
    X = rng.standard_normal((m, d))
    X[:3 * m // 10, 2:] = 0.0
    X[3 * m // 10:m // 2, 6:] = 0.0
    X = X[rng.permutation(m)]
    clean = LabeledDataset(X, X @ w_star)
    return corrupt_massart(clean, MassartSpec(0.2, FlipNegate(), seed + 1))[0], w_star


def highdim_instance(seed, d=100, m=750):
    """The benchmark's LAD family: Gaussian rows, an integer target in
    [-3, 3], labels scaled by -100 at eta 0.2."""
    rng = np.random.default_rng(seed)
    w_star = rng.integers(-3, 4, size=d).astype(float)
    X = rng.standard_normal((m, d))
    return corrupt_massart(LabeledDataset(X, X @ w_star), MassartSpec(0.2, Scale(-100.0), seed))[0]


def mixture_instance(seed, d, n, eta=0.2):
    spec = SyntheticSpec(d=d, n=n, seed=seed)
    return corrupt_massart(make_synthetic_dataset(spec),
                           MassartSpec(eta, gated_flip(4.0), seed + 1))[0]


def leaf_data(ds):
    """A leaf's transform and its rescaled rows, built from the public parts."""
    n, d = ds.x.shape
    transform = radial_isotropize(ds.x, certifying_gamma(n, d))
    return transform, LabeledDataset(*transform.apply(ds.x, ds.y))


def full_lp_snapped(ds):
    """One transform leaf, solved on every row."""
    transform, rescaled = leaf_data(ds)
    w = transform.matrix.T @ l1_fit_linear(rescaled).w
    return snap_to_rational(w, 10**6)


PLANE_TARGET = (2.0, -1.0, 3.0)


def plane_instance(seed, n=200, on_plane=130, eta=0.3):
    """65% of the points on the plane x3 = 0, which is not heavy (2/3 would
    be). Each point off the plane is rewritten with probability eta, and all
    of them to the same wrong third coordinate."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    X[:on_plane, 2] = 0.0
    w_star = np.array(PLANE_TARGET)
    y = X @ w_star
    rewritten = (np.arange(n) >= on_plane) & (rng.random(n) < eta)
    y[rewritten] = X[rewritten] @ (w_star - [0.0, 0.0, 7.0])
    order = rng.permutation(n)
    return LabeledDataset(X[order], y[order])


class TestRecoverLinearSimple:
    """Instances without a heavy subspace: one transform leaf at depth 0."""

    @pytest.mark.parametrize("bound", [0, -3, 16.0])
    def test_bad_max_denominator_is_a_contract_violation(self, bound):
        # raised before any fit: two points in R^3 would be InsufficientPoints;
        # a ValueError too, for callers that caught the untyped error
        too_few = realizable(0, 2, 3, [1.0, 1.0, 1.0])
        with pytest.raises(ContractViolation, match="max_denominator"):
            recover_linear(too_few, bound)
        with pytest.raises(ValueError):
            recover_linear(too_few, bound)

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_noiseless_exact(self, d):
        rng = np.random.default_rng(d)
        w_star = rng.integers(-5, 6, size=d).astype(float)
        report = recover_linear(realizable(d, 6 * d + 5, d, w_star))
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        assert report.inlier_fraction == 1.0
        assert report.majority_certified
        assert report.recursion_depth == 0

    def test_desk_instance_agrees_with_l0_oracle(self):
        # small m keeps the subset enumeration oracle affordable
        rng = np.random.default_rng(77)
        w_star = np.array([1.0, 10.0, 1.0, 1.0, 1.0])
        X = rng.standard_normal((30, 5)) / 5.0
        X[:, 0] += 1.0
        X[20:] *= 40.0  # a batch of far points, gated below
        clean = LabeledDataset(X, X @ w_star)
        corrupted, _ = corrupt_massart(clean, MassartSpec(0.25, gated_flip(20.0), 3))
        report = recover_linear(corrupted)
        l0_w, _ = l0_fit_bruteforce(corrupted)
        assert report.w_snapped == snap_to_rational(l0_w, 10**6)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)

    def test_single_outlier_defeats_naive_but_not_rescaled(self):
        rng = np.random.default_rng(5)
        w_star = np.array([2.0, -1.0])
        X = rng.standard_normal((50, 2)) / 4.0
        X[:, 1] += 1.0
        X[0] = np.array([100.0, 0.3])
        y = X @ w_star
        y[0] = -y[0]  # the adversary flips the far point
        ds = LabeledDataset(X, y)
        naive = snap_to_rational(l1_fit_linear(ds).w, 10**6)
        report = recover_linear(ds)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        assert naive.to_fractions() != fractions_of(w_star)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints) as info:
            recover_linear(realizable(0, 2, 3, [1.0, 1.0, 1.0]))
        assert info.value.diagnostics == {"level": 0}

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -30])
    def test_junk_labels_are_not_certified_at_any_scale(self, scale):
        # each point is judged on (x/|x|, y/|x|); on raw values FIT_RTOL's
        # floor of 1e-7 would pass every point of the set scaled by 2^-30
        rng = np.random.default_rng(14)
        X, y = rng.standard_normal((30, 2)), rng.standard_normal(30)
        report = recover_linear(LabeledDataset(X * scale, y * scale))
        assert not report.majority_certified
        assert report.inlier_fraction == pytest.approx(2 / 30)


class TestRecoverLinearRecursive:
    def test_planted_heavy_exact_through_one_level(self):
        ds = planted_heavy_instance(seed=101)
        report = recover_linear(ds)
        assert report.w_snapped.to_fractions() == fractions_of([3.0, -2.0])
        assert report.recursion_depth == 1
        outcomes = [(e["branch"], e["outcome"]) for e in report.recursion_trace]
        assert ("root", "heavy-subspace") in outcomes

    def test_all_points_on_line_not_identifiable(self):
        x = np.column_stack([np.linspace(1, 3, 20), np.zeros(20)])
        ds = LabeledDataset(x, x @ np.array([3.0, -2.0]))
        with pytest.raises(NonIdentifiable) as info:
            recover_linear(ds)
        assert info.value.diagnostics == {"level": 0}

    def test_tiny_rows_still_span(self):
        # the rank of the rows is a property of their directions: rows
        # scaled by 2^-40 must not drop out of it
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        X[3:] *= 2.0**-40
        report = recover_linear(LabeledDataset(X, X @ np.array([3.0, -2.0])))
        assert report.w_snapped.to_fractions() == fractions_of([3.0, -2.0])

    def test_recursion_conservation(self):
        ds = planted_heavy_instance(seed=202)
        report = recover_linear(ds)
        root = report.recursion_trace[0]
        branches = [e for e in report.recursion_trace if e["depth"] == 1]
        assert root["n_points"] + root["n_zero"] == ds.m
        assert sum(e["n_points"] + e["n_zero"] for e in branches) == root["n_points"]

    def test_zero_covariates_counted_but_excluded(self):
        ds = realizable(12, 30, 2, [1.0, 4.0])
        x = np.vstack([ds.x, np.zeros((3, 2))])
        y = np.concatenate([ds.y, np.zeros(3)])
        report = recover_linear(LabeledDataset(x, y))
        assert report.recursion_trace[0]["n_zero"] == 3
        assert report.w_snapped.to_fractions() == fractions_of([1.0, 4.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_exactness_property_noiseless(self, seed):
        rng = np.random.default_rng(400 + seed)
        d = int(rng.integers(1, 5))
        w_star = rng.integers(-8, 9, size=d).astype(float)
        ds = realizable(seed, 10 * d + 10, d, w_star)
        report = recover_linear(ds)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)
        assert np.max(np.abs(ds.y - ds.x @ report.w_snapped.to_floats())) == 0.0

    def test_majority_certificate_flags_low_inliers(self):
        # labels are pure noise: nothing fits half the samples exactly
        rng = np.random.default_rng(13)
        ds = LabeledDataset(rng.standard_normal((40, 2)), rng.standard_normal(40))
        report = recover_linear(ds)
        assert not report.majority_certified
        assert report.inlier_fraction < 0.5

    def test_inlier_fraction_recomputes_exactly(self):
        ds = planted_heavy_instance(seed=404)
        report = recover_linear(ds)
        ws = report.w_snapped.to_floats()
        tol = 1e-7 * (1 + np.abs(ds.y))
        frac = float((np.abs(ds.y - ds.x @ ws) <= tol).mean())
        assert frac == report.inlier_fraction

    def test_report_json_serializes(self):
        import json

        report = recover_linear(planted_heavy_instance(seed=303))
        obj = json.loads(json.dumps(report.to_json()))
        assert obj["model"] == "linear"
        assert obj["recursion_depth"] == 1
        assert obj["w_snapped"]["values"] == [3.0, -2.0]
        # both dim-1 leaves (180 and 120 points) certify a half fit, at
        # C-steps 1 and 2, and solve no LP
        leaves = [e for e in obj["recursion_trace"] if e["outcome"] == "transform"]
        assert [(e["lad"], e["rounds"], e["lp_rows"], e["lp_solves"], e["lp_iterations"])
                for e in leaves] == [("half", 1, 0, 0, 0), ("half", 2, 0, 0, 0)]
        # dim-1 leaves converge long before the first detector run
        assert [(e["isotropy"]["newton_steps"], e["isotropy"]["newton_from"])
                for e in leaves] == [(0, None), (0, None)]

    @pytest.mark.parametrize("seed", range(3))
    def test_exactly_k_over_d_leaf_takes_newton_steps_from_the_first_detector_run(self, seed):
        ds, w_star = heavy_recursion_instance(seed)
        report = recover_linear(ds)
        (vperp,) = [e for e in report.recursion_trace if e["branch"] == "root/Vperp"]
        assert (vperp["dim"], vperp["n_points"]) == (14, 700)
        iso = vperp["isotropy"]
        assert iso["newton_from"] == DETECT_EVERY - 1
        assert iso["newton_steps"] >= 1 and iso["iterations_used"] < NEWTON_AFTER
        assert report.w_snapped.to_fractions() == fractions_of(w_star)


class TestCandidateAndCertify:
    """A leaf asks l1.lad_fit: the half fit from 6d rows, then the vertex,
    then the LP."""

    @pytest.mark.parametrize("seed", range(3))
    def test_certified_candidate_matches_the_full_lp(self, seed):
        ds = mixture_instance(seed, d=5, n=200)
        report = recover_linear(ds)
        (leaf,) = report.recursion_trace
        assert (leaf["lad"], leaf["rounds"]) == ("half", 1)
        assert (leaf["lp_rows"], leaf["lp_solves"], leaf["lp_iterations"]) == (0, 0, 0)
        assert report.w_snapped == full_lp_snapped(ds)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("eta, steps", [(0.0, 1), (0.1, 1), (0.3, 2), (0.45, 2)])
    def test_the_candidate_is_the_full_lp_answer_up_to_eta_045(self, eta, steps, seed):
        ds = mixture_instance(seed, d=5, n=200, eta=eta)
        transform, rescaled = leaf_data(ds)
        w, info = l1.lad_fit(rescaled)
        assert (info["lad"], info["rounds"]) == ("half", steps)
        assert snap_to_rational(transform.matrix.T @ w, 10**6) == full_lp_snapped(ds)

    @pytest.mark.parametrize("seed, eta", [(0, 0.0), (1, 0.0), (2, 0.0), (0, 0.1), (1, 0.1),
                                           (2, 0.1), (0, 0.3), (2, 0.3), (2, 0.45)])
    def test_the_vertex_is_the_full_lp_answer_on_4d_rows(self, eta, seed):
        # the other draws of this grid at eta 0.3 and 0.45 leave the vertex
        # unproven; the LP answers them
        ds = mixture_instance(seed, d=10, n=40, eta=eta)
        transform, rescaled = leaf_data(ds)
        w, info = l1.lad_fit(rescaled)
        assert (info["lad"], info["rounds"]) == ("vertex", l1.VERTEX_IRLS_ROUNDS)
        assert snap_to_rational(transform.matrix.T @ w, 10**6) == full_lp_snapped(ds)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rows", ["raw", "unit"])
    def test_the_vertex_is_the_lp_answer_on_the_baselines_inputs(self, rows, seed):
        # the naive-l1 and normalized-l1 baselines fit the raw rows and the
        # unit rows (x/|x|, y/|x|) of a sweep-sized instance
        ds = mixture_instance(seed, d=30, n=120, eta=0.0)
        if rows == "unit":
            ds = LabeledDataset(*_unit_rows(ds.x, ds.y))
        w, info = l1.lad_fit(ds)
        assert (info["lad"], info["lp_solves"]) == ("vertex", 0)
        assert snap_to_rational(w, 10**6) == snap_to_rational(l1_fit_linear(ds).w, 10**6)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_majority_fit_off_the_optimum_is_refused(self, seed):
        # the half that the least-squares start ranks best lies on the plane,
        # where every third coordinate fits, so C-step 1 has rows that do not
        # span; the LP on all 200 rows takes the third coordinate from the
        # points off the plane, not from the rewritten ones
        ds = plane_instance(seed)
        report = recover_linear(ds)
        (leaf,) = report.recursion_trace
        assert (leaf["lad"], leaf["rounds"], leaf["lp_rows"], leaf["lp_solves"]) == (
            "lp", 0, 200, 1)
        assert report.w_snapped == full_lp_snapped(ds)
        assert report.w_snapped.to_fractions() == fractions_of(PLANE_TARGET)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_vertex_on_the_plane_is_refused(self, seed):
        # below 6d rows: d best-ranked rows on the plane do not span (seed
        # 1), the rows such a vertex fits do not span (seeds 0 and 2), or
        # the dual point fails (seed 3); the LP then answers on all 17 rows
        ds = plane_instance(seed, n=17, on_plane=11)
        report = recover_linear(ds)
        (leaf,) = report.recursion_trace
        assert (leaf["lad"], leaf["rounds"], leaf["lp_rows"], leaf["lp_solves"]) == (
            "lp", l1.VERTEX_IRLS_ROUNDS, 17, 1)
        assert report.w_snapped == full_lp_snapped(ds)

    @pytest.mark.parametrize("n, rounds", [(200, 1), (25, l1.VERTEX_IRLS_ROUNDS)])
    def test_failed_certificate_falls_back_to_the_full_lp(self, n, rounds, monkeypatch):
        # from 6d rows the C-steps run first: C-step 1 fits its half exactly,
        # and with its proof refused they stop, since it fits the next half
        # too (181 of the 200 rows); below, the vertex tries once; either way
        # one LP on all n rows follows
        rows, iterations = [], []

        def recorded(samples):
            fit = l1_fit_linear(samples)
            rows.append(samples.m)
            iterations.append(fit.iterations)
            return fit

        monkeypatch.setattr(l1, "lad_optimal", lambda samples, w: False)
        monkeypatch.setattr(l1, "l1_fit_linear", recorded)
        ds = mixture_instance(0, d=5, n=n)
        report = recover_linear(ds)
        (leaf,) = report.recursion_trace
        assert rows == [n]
        assert (leaf["lad"], leaf["rounds"]) == ("lp", rounds)
        assert (leaf["lp_rows"], leaf["lp_solves"]) == (n, 1)
        assert leaf["lp_iterations"] == iterations[0] > 0
        assert report.w_snapped == full_lp_snapped(ds)

    @pytest.mark.parametrize("n, lad, rounds", [(29, "vertex", l1.VERTEX_IRLS_ROUNDS),
                                                (30, "half", 1)])
    def test_the_candidate_needs_6d_rows(self, n, lad, rounds):
        # below 6d rows the vertex is the first try, from 6d the half fit;
        # on noiseless rows either is proven and no LP is solved
        w_star = [2.0, -1.0, 3.0, 0.0, 5.0]
        report = recover_linear(realizable(n, n, 5, w_star))
        (leaf,) = report.recursion_trace
        assert (leaf["lad"], leaf["rounds"]) == (lad, rounds)
        assert (leaf["lp_rows"], leaf["lp_solves"], leaf["lp_iterations"]) == (0, 0, 0)
        assert report.w_snapped.to_fractions() == fractions_of(w_star)

    def test_a_sweep_sized_leaf_never_tries_the_half_fit(self, monkeypatch):
        chosen = []
        best_rows = l1._best_rows

        def recorded(X, y, w, k):
            chosen.append(k)
            return best_rows(X, y, w, k)

        monkeypatch.setattr(l1, "_best_rows", recorded)
        monkeypatch.setattr(l1, "_c_steps", None)  # calling it would raise TypeError
        ds = mixture_instance(0, d=30, n=120)
        report = recover_linear(ds)
        (leaf,) = report.recursion_trace
        assert chosen == [30]  # the vertex's d rows, never a C-step
        assert (leaf["lad"], leaf["rounds"], leaf["lp_rows"], leaf["lp_solves"]) == (
            "vertex", l1.VERTEX_IRLS_ROUNDS, 0, 0)
        assert report.w_snapped == full_lp_snapped(ds)

    def test_c_steps_stop_when_the_half_repeats(self):
        # raw rows with labels negated at rate 0.45: neither refit fits its
        # own half, and the half C-step 2 fit is the one its w ranks best;
        # the vertex from that w is refused and the LP answers
        ds = flipped_instance(9, 200, 5, eta=0.45)
        steps = list(l1._c_steps(ds.x, ds.y))
        assert [(step, exact) for step, _, exact in steps] == [(1, False), (2, False)]
        halves = [set(l1._best_rows(ds.x, ds.y, w, 100).tolist()) for _, w, _ in steps]
        assert halves[0] == halves[1]
        _, info = l1.lad_fit(ds)
        assert (info["lad"], info["rounds"], info["lp_solves"]) == ("lp", 2, 1)

    def test_c_steps_stop_when_a_refused_exact_fit_fits_the_next_half(self):
        # 181 of the 200 rescaled rows fit the target; C-step 1 fits its half
        # exactly, and with its proof refused (unpacking resumes the steps
        # without one) they end because it fits the next half exactly too,
        # although that half is another one
        rescaled = leaf_data(mixture_instance(0, d=5, n=200))[1]
        X, y = rescaled.x, rescaled.y
        ((step, w, exact),) = l1._c_steps(X, y)
        assert (step, exact) == (1, True)
        fitted = set(l1._best_rows(X, y, l1._least_squares(X, y), 100).tolist())
        following = l1._best_rows(X, y, w, 100)
        assert set(following.tolist()) != fitted
        assert l1.exact_fit_mask(X[following] @ w, y[following]).all()

    @pytest.mark.parametrize("seed, steps", [(0, 4), (1, 3), (2, 4)])
    def test_c_steps_solve_fewer_least_squares_than_reweighting(self, seed, steps, monkeypatch):
        # reweighted least squares certified its half fit on these 100 x 750
        # leaves at round 6: 7 weighted solves and 3 half fits, 10 in all
        sizes = []
        solve = l1._least_squares
        monkeypatch.setattr(l1, "_least_squares", lambda X, y: sizes.append(len(X)) or solve(X, y))
        _, info = l1.lad_fit(leaf_data(highdim_instance(seed))[1])
        assert (info["lad"], info["rounds"]) == ("half", steps)
        assert sizes == [750] + [375] * steps and len(sizes) < 10


def flipped_instance(seed, m, d, eta=0.25):
    """Gaussian points, a small integer target, labels negated at rate eta."""
    w_star = np.random.default_rng(seed).integers(-5, 6, size=d)
    spec = MassartSpec(eta, FlipNegate(), seed + 1)
    return corrupt_massart(realizable(seed, m, d, w_star), spec)[0]


TURNED_LEAVES = {
    # the half fit certified
    "mixture, 120 x 5": lambda seed: mixture_instance(seed, 5, 120),
    # below 6d rows: the vertex certified
    "flipped, 20 x 4": lambda seed: flipped_instance(seed, 20, 4),
    # the half fit certified at C-step 2 or 3
    "flipped, 200 x 6": lambda seed: flipped_instance(seed, 200, 6),
    # the best half of the rows does not span; one solve
    "plane, 200 x 3": plane_instance,
}


class TestEquivariance:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(TURNED_LEAVES))
    def test_a_turned_transform_fits_the_same_leaf(self, case, seed):
        # any B whose images are in position serves: Q B, Q orthogonal,
        # turns the images and the LP's minimizer by Q, and (Q B)^T maps it
        # back to the same w
        ds = TURNED_LEAVES[case](seed)
        n, d = ds.x.shape
        t = radial_isotropize(ds.x, certifying_gamma(n, d))
        Q = np.linalg.qr(np.random.default_rng(100 + seed).standard_normal((d, d)))[0]
        turned = dataclasses.replace(t, matrix=Q @ t.matrix, images=t.images @ Q.T)
        w, lp = linear._fit_leaf(t, ds.x, ds.y)
        w_turned, lp_turned = linear._fit_leaf(turned, ds.x, ds.y)
        np.testing.assert_allclose(w_turned, w, rtol=0.0, atol=1e-9)
        assert snap_to_rational(w_turned, 10**6) == snap_to_rational(w, 10**6)
        # only the simplex's iteration count depends on the orientation
        same = ("lad", "rounds", "lp_rows", "lp_solves")
        assert [lp_turned[k] for k in same] == [lp[k] for k in same]

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_map(self, seed):
        w_star = np.array([4.0, -6.0])
        ds = realizable(500 + seed, 40, 2, w_star)
        T = np.diag([2.0, 0.5])
        mapped = LabeledDataset(ds.x @ T.T, ds.y)
        rep_orig = recover_linear(ds)
        rep_mapped = recover_linear(mapped)
        if rep_orig.majority_certified and rep_mapped.majority_certified:
            expected = np.linalg.inv(T).T @ rep_orig.w_snapped.to_floats()
            assert rep_mapped.w_snapped.to_fractions() == fractions_of(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_permutation_map(self, seed):
        w_star = np.array([1.0, 2.0, -3.0])
        ds = realizable(600 + seed, 50, 3, w_star)
        T = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        mapped = LabeledDataset(ds.x @ T.T, ds.y)
        rep_orig = recover_linear(ds)
        rep_mapped = recover_linear(mapped)
        if rep_orig.majority_certified and rep_mapped.majority_certified:
            expected = np.linalg.inv(T).T @ rep_orig.w_snapped.to_floats()
            assert rep_mapped.w_snapped.to_fractions() == fractions_of(expected)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.integers(-40, 40), min_size=64, max_size=64))
def test_per_point_rescaling_leaves_the_snapped_output_unchanged(seed, exponents):
    # radial isotropy normalizes each point, so scaling one (x_i, y_i) pair
    # by c > 0 must not change the output; powers of 2 scale exactly
    corrupted = mixture_instance(seed, d=8, n=64)
    scale = 2.0 ** np.array(exponents)
    rescaled = LabeledDataset(corrupted.x * scale[:, None], corrupted.y * scale)
    expected = recover_linear(corrupted).w_snapped
    assert recover_linear(rescaled).w_snapped == expected


def rescale_one_row(samples, i, c):
    x, y = samples.x.copy(), samples.y.copy()
    x[i] *= c
    y[i] *= c
    return LabeledDataset(x, y)


METAMORPHIC_DRAWS = {
    "mixture": [lambda seed=seed: mixture_instance(seed, d=8, n=64) for seed in range(20)],
    # a heavy root: 60% of the points on span(e1)
    "heavy": [lambda seed=seed: planted_heavy_instance(seed) for seed in range(15)],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-200, 1e-3, 7.0, 1e3, 1e200])
@pytest.mark.parametrize("family", sorted(METAMORPHIC_DRAWS))
def test_rescaling_one_row_by_c_leaves_the_snapped_output_unchanged(family, c):
    # radial isotropy sees x_i / |x_i|, and every certificate judges the point
    # on (x_i / |x_i|, y_i / |x_i|), so an inexact c > 0 on one row changes nothing;
    # at 1e-200 and 1e200 the squares of the row's entries under- and overflow
    for k, draw in enumerate(METAMORPHIC_DRAWS[family]):
        samples = draw()
        i = int(np.random.default_rng(k).integers(samples.m))
        expected = recover_linear(samples)
        if family == "heavy":
            assert expected.recursion_trace[0]["outcome"] == "heavy-subspace"
        report = recover_linear(rescale_one_row(samples, i, c))
        assert report.w_snapped == expected.w_snapped, f"draw {k}, row {i}"
        assert report.recursion_trace[0]["n_points"] == samples.m  # the row is not read as 0


def assert_row_order_does_not_leak(seed, perm):
    corrupted = mixture_instance(seed, d=8, n=len(perm))
    permuted = LabeledDataset(corrupted.x[list(perm)], corrupted.y[list(perm)])
    expected = recover_linear(corrupted).w_snapped
    assert recover_linear(permuted).w_snapped == expected


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(64)))
def test_row_permutation_leaves_the_snapped_output_unchanged(seed, perm):
    # at n = 8d the leaf first tries the half fit, whose choice of rows
    # breaks ties in residual by position, so this checks that the choice
    # does not leak into the output
    assert_row_order_does_not_leak(seed, perm)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(32)))
def test_row_permutation_leaves_the_vertex_unchanged(seed, perm):
    # at n = 4d the leaf tries the vertex first, whose d rows are chosen the
    # same way
    assert_row_order_does_not_leak(seed, perm)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(8)),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8))
def test_signed_column_permutation_moves_the_snapped_output_alike(seed, perm, signs):
    # x -> T x with T[i, perm[i]] = signs[i] maps w to T w; a general
    # rotation would make the snapped output irrational
    corrupted = mixture_instance(seed, d=8, n=64)
    mapped = LabeledDataset(corrupted.x[:, list(perm)] * np.array(signs, dtype=float),
                            corrupted.y)
    w = recover_linear(corrupted).w_snapped.to_fractions()
    expected = tuple(s * w[p] for s, p in zip(signs, perm))
    assert recover_linear(mapped).w_snapped.to_fractions() == expected
