import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from radreg.bench import SyntheticSpec, make_synthetic_dataset
from radreg.data import LabeledDataset
from radreg.errors import ContractViolation, DimensionMismatch, InsufficientPoints, SolverStalled
import radreg.l1
from radreg.l1 import (RationalVector, exact_fit_mask, l1_fit_linear, lad_fit, lad_optimal,
                       snap_to_rational)
from radreg.isotropy import radial_isotropize
from radreg.noise import FlipNegate, MassartSpec, Scale, corrupt_massart, gated_flip

from oracles import Degenerate, check_structural_condition, l0_fit_bruteforce


def basic_solution_oracle(samples):
    """Independent LAD optimum: the minimum over all interpolating d-subsets
    (an optimal LAD solution always sits at a basic solution)."""
    X, y = samples.x, samples.y
    m, d = X.shape
    best = np.inf
    for subset in itertools.combinations(range(m), d):
        idx = list(subset)
        try:
            w = np.linalg.solve(X[idx], y[idx])
        except np.linalg.LinAlgError:
            continue
        best = min(best, float(np.sum(np.abs(y - X @ w))))
    return best


def primal_lp_objective(samples):
    """Independent LAD optimum from the primal epigraph LP

        min sum t_i  s.t.  -t_i <= y_i - w.x_i <= t_i,  w free,

    which l1_fit_linear does not build (it solves the dual)."""
    X, y = samples.x, samples.y
    m, d = X.shape
    eye = np.eye(m)
    result = linprog(
        np.concatenate([np.zeros(d), np.ones(m)]),
        A_ub=np.block([[-X, -eye], [X, -eye]]),
        b_ub=np.concatenate([-y, y]),
        bounds=[(None, None)] * d + [(0, None)] * m,
        method="highs",
    )
    assert result.success
    return result.fun


def exact_solution(A, b):
    """The solution of the square system A x = b in Fractions, by Gaussian
    elimination on the floats' exact binary values."""
    n = len(b)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(v))] for row, v in zip(A, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * p for a, p in zip(rows[r], rows[c])]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][k] * x[k] for k in range(c + 1, n))) / rows[c][c]
    return x


def is_unique_lad_minimizer(samples, w):
    """True when w is the only minimizer of sum |y_i - w.x_i|.

    With Z the samples w fits exactly, N the rest and s_i the residual signs
    on N, the directional derivative at w along r is
    sum_Z |x_i.r| - g.r with g = sum_N s_i x_i. It is positive for every
    r != 0 exactly when g lies in the interior of the zonotope
    {sum_Z v_i x_i : |v_i| <= 1}, i.e. when some t > 1 puts t*g inside it.
    """
    X, y = samples.x, samples.y
    residuals = y - X @ w
    fits = np.abs(residuals) <= 1e-9 * (1.0 + np.abs(y))
    XZ = X[fits]
    if np.linalg.matrix_rank(XZ) < X.shape[1]:
        return False
    g = np.sign(residuals[~fits]) @ X[~fits]
    n_fit = int(fits.sum())
    result = linprog(
        np.concatenate([np.zeros(n_fit), [-1.0]]),  # maximize t
        A_eq=np.column_stack([XZ.T, -g]),
        b_eq=np.zeros(X.shape[1]),
        bounds=[(-1, 1)] * n_fit + [(0, 2)],
        method="highs",
    )
    return bool(result.success and -result.fun > 1.0 + 1e-9)


def oracle_lp(kind, seed):
    """(X, y) of a dual LAD LP of the given kind."""
    rng = np.random.default_rng(700 + seed)
    if kind == "mixture":
        ds, _ = corrupt_massart(make_synthetic_dataset(SyntheticSpec(d=30, n=120, seed=seed)),
                                MassartSpec(0.3, gated_flip(15.0), seed=seed + 1))
        return ds.x, ds.y
    if kind == "d=1":
        return rng.standard_normal((25, 1)), rng.standard_normal(25)
    X = rng.standard_normal((80, 6))
    if kind == "zero column":
        X[:, 2] = 0.0
    elif kind == "scattered zeros":
        X[rng.random(X.shape) < 0.5] = 0.0
    elif kind == "duplicate columns":
        X[:, 5] = X[:, 1]
    elif kind == "huge entry":  # passModel rejects |x| >= 1e15
        X[3, 4] = 1e300
    return X, (rng.standard_cauchy(80) if kind == "cauchy labels" else X @ rng.integers(-4, 5, 6)
               + (rng.random(80) < 0.3) * rng.standard_normal(80))


class TestLinprog:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["mixture", "zero column", "scattered zeros",
                                      "duplicate columns", "cauchy labels", "d=1", "huge entry"])
    def test_matches_scipy_linprog_bit_for_bit(self, kind, seed):
        # scipy's public linprog over the same HiGHS is the oracle: a scipy
        # release that changes the private bindings fails here
        X, y = oracle_lp(kind, seed)
        result = radreg.l1.linprog(X, y)
        expected = linprog(-y, A_eq=X.T, b_eq=np.zeros(X.shape[1]), bounds=(-1, 1),
                           method="highs", options={"presolve": False})
        assert result.success == expected.success == (kind != "huge entry")
        if expected.success:
            assert np.array_equal(result.w, -expected.eqlin.marginals)
            assert (result.fun, result.nit) == (expected.fun, expected.nit)

    def test_rejected_model_is_solver_stalled(self):
        X, y = oracle_lp("huge entry", 0)
        with pytest.raises(SolverStalled, match="LP backend failed") as info:
            l1_fit_linear(LabeledDataset(X, y))
        assert info.value.diagnostics == {"input": "x", "index": [3, 4], "magnitude": 1e300,
                                          "large_matrix_value": 1e15}

    def test_infinite_cost_label_is_solver_stalled_naming_the_label(self):
        # HiGHS reads a cost at or above its infinite_cost as infinite and
        # reports the LP optimal at -inf
        X, y = oracle_lp("mixture", 0)
        y[7] = -2e20
        with pytest.raises(SolverStalled, match="duality gap") as info:
            l1_fit_linear(LabeledDataset(X, y))
        assert info.value.diagnostics == {"input": "y", "index": [7], "magnitude": 2e20,
                                          "infinite_cost": 1e20}

    def test_dropped_entries_are_solver_stalled_naming_the_column(self):
        # HiGHS drops entries at or below its small_matrix_value, 1e-9, and
        # solves the LP without them: its dual point is feasible for that LP,
        # so the duality gap closes at a w with objective 7.7, where the
        # minimizer interpolates every row
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3)) * [1.0, 1.0, 1e-10]
        with pytest.raises(SolverStalled, match="small_matrix_value") as info:
            l1_fit_linear(LabeledDataset(X, X @ [1.0, 2.0, 3e9]))
        assert info.value.diagnostics == {"column": 2}

    def test_dropped_entries_keep_a_w_proven_on_the_given_rows(self):
        # the 1e-6 column stays, but entries of it at or below 1e-9 are dropped:
        # HiGHS's dual point then fails the column check while its w, 2.3e-9 from
        # the target, is a minimizer that lad_optimal proves on X as given
        rng = np.random.default_rng(5)
        X = rng.standard_normal((60, 4)) * [1.0, 1.0, 1.0, 1e-6]
        y = X @ [1.0, -2.0, 3.0, 4e6]
        flipped = rng.random(60) < 0.2
        y[flipped] = -y[flipped]
        samples = LabeledDataset(X, y)
        fit = l1_fit_linear(samples)
        assert lad_optimal(samples, fit.w)
        assert fit.w == pytest.approx([1.0, -2.0, 3.0, 4e6], rel=1e-12, abs=1e-8)
        assert fit.objective == pytest.approx(np.abs(y - X @ fit.w).sum(), rel=1e-15)

    def test_small_column_above_the_drop_threshold_still_solves(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3)) * [1.0, 1.0, 1e-6]
        fit = l1_fit_linear(LabeledDataset(X, X @ [1.0, 2.0, 3e6]))
        assert fit.objective == pytest.approx(0.0, abs=1e-6)
        assert fit.w == pytest.approx([1.0, 2.0, 3e6], rel=1e-9)


class TestL1FitLinear:
    def test_noiseless_collinear(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        fit = l1_fit_linear(LabeledDataset(x, 2.0 * x.ravel()))
        assert fit.w == pytest.approx([2.0], abs=1e-9)
        assert fit.objective <= 1e-9
        assert exact_fit_mask(x @ fit.w, 2.0 * x.ravel()).all()

    def test_median_on_constant_covariate(self):
        # three identical covariates: the fit is the label median
        ds = LabeledDataset(np.ones((3, 1)), np.array([0.0, 0.0, 1.0]))
        fit = l1_fit_linear(ds)
        assert fit.w == pytest.approx([0.0], abs=1e-9)
        assert fit.objective == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_basic_solution_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ds = LabeledDataset(rng.standard_normal((8, 2)), rng.standard_normal(8))
        fit = l1_fit_linear(ds)
        assert fit.objective == pytest.approx(basic_solution_oracle(ds), abs=1e-8)

    def test_objective_equals_residual_sum(self):
        rng = np.random.default_rng(8)
        ds = LabeledDataset(rng.standard_normal((20, 3)), rng.standard_normal(20))
        fit = l1_fit_linear(ds)
        assert fit.objective == pytest.approx(np.sum(np.abs(fit.residuals)),
                                              rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_local_optimality_under_perturbation(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = LabeledDataset(rng.standard_normal((30, 3)), rng.standard_normal(30))
        fit = l1_fit_linear(ds)
        dirs = rng.standard_normal((100, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for u in dirs:
            for sign in (1.0, -1.0):
                w = fit.w + sign * 1e-4 * u
                obj = float(np.sum(np.abs(ds.y - ds.x @ w)))
                assert obj >= fit.objective - 1e-9

    def test_weighted_median_reduction(self):
        # d=1: minimizing sum |y - w x| = sum |x| * |y/x - w| picks a
        # weighted median of y/x with weights |x|
        x = np.array([1.0, 1.0, 1.0, 5.0, 2.0])
        ratios = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = x * ratios
        fit = l1_fit_linear(LabeledDataset(x[:, None], y))
        order = np.argsort(ratios)
        cum = np.cumsum(np.abs(x)[order])
        median_idx = order[np.searchsorted(cum, cum[-1] / 2.0)]
        assert fit.w[0] == pytest.approx(ratios[median_idx], abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_primal_lp(self, seed):
        rng = np.random.default_rng(400 + seed)
        ds = LabeledDataset(rng.standard_normal((60, 5)),
                            rng.standard_cauchy(60))
        fit = l1_fit_linear(ds)
        assert fit.objective == pytest.approx(primal_lp_objective(ds), rel=1e-9)

    @pytest.mark.parametrize("m,d", [(8, 2), (40, 3), (120, 10), (300, 30)])
    def test_solution_is_a_vertex(self, m, d):
        # labels in general position: only a basic solution fits d samples
        rng = np.random.default_rng(m + d)
        ds = LabeledDataset(rng.standard_normal((m, d)), rng.standard_normal(m))
        fit = l1_fit_linear(ds)
        interpolated = np.abs(fit.residuals) <= 1e-9 * (1.0 + np.abs(ds.y))
        assert interpolated.sum() >= d
        assert np.linalg.matrix_rank(ds.x[interpolated]) == d

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_target_under_massart(self, seed):
        rng = np.random.default_rng(500 + seed)
        X = rng.standard_normal((200, 5))
        w_star = np.array([1.0, -2.0, 0.5, 3.0, -1.25])
        corrupted, _ = corrupt_massart(
            LabeledDataset(X, X @ w_star), MassartSpec(0.2, FlipNegate(), seed=seed)
        )
        assert is_unique_lad_minimizer(corrupted, w_star)
        snapped = snap_to_rational(l1_fit_linear(corrupted).w)
        assert snapped.to_fractions() == tuple(Fraction(v) for v in w_star)

    def test_w_lies_on_the_exact_vertex(self):
        # the naive-l1 fit of a sweep instance (mixture, d=30, n=120, gated
        # flip at eta=0.3): its 30 interpolated rows have condition number
        # about 3900, and without presolve's final re-solve the multipliers
        # lie about 2e-11 from the vertex they define, far inside the
        # +-5e-7 basin that snapping at denominator 1e6 rounds to a target
        ds, _ = corrupt_massart(make_synthetic_dataset(SyntheticSpec(d=30, n=120, seed=0)),
                                MassartSpec(0.3, gated_flip(15.0), seed=1))
        fit = l1_fit_linear(ds)
        interpolated = np.abs(fit.residuals) <= 1e-9 * (1.0 + np.abs(ds.y))
        assert interpolated.sum() == 30
        vertex = exact_solution(ds.x[interpolated], ds.y[interpolated])
        assert np.abs(fit.w - np.array([float(v) for v in vertex])).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["duplicate", "zero", "sum"])
    def test_dependent_columns(self, kind, seed):
        # X^T then has dependent rows, which the LP's equality block keeps:
        # the minimizer need not be unique, but its objective is
        rng = np.random.default_rng(400 + seed)
        X = rng.standard_normal((60, 5))
        if kind == "duplicate":
            X[:, 4] = X[:, 1]
        elif kind == "zero":
            X[:, 2] = 0.0
        else:
            X[:, 4] = X[:, 0] + X[:, 3]
        ds = LabeledDataset(X, rng.standard_cauchy(60))
        try:
            fit = l1_fit_linear(ds)
        except SolverStalled:
            return
        assert fit.objective == pytest.approx(primal_lp_objective(ds), rel=1e-9)

    def test_failed_solve_is_solver_stalled(self, monkeypatch):
        original = radreg.l1.linprog

        def failed(X, y):
            return original(X, y)._replace(success=False, message="injected failure")

        monkeypatch.setattr(radreg.l1, "linprog", failed)
        rng = np.random.default_rng(9)
        ds = LabeledDataset(rng.standard_normal((30, 3)), rng.standard_normal(30))
        with pytest.raises(SolverStalled, match="injected failure"):
            l1_fit_linear(ds)

    def test_flipped_marginal_sign_fails_the_duality_gap_check(self, monkeypatch):
        original = radreg.l1.linprog

        def flipped(X, y):
            result = original(X, y)
            return result._replace(w=-result.w)

        monkeypatch.setattr(radreg.l1, "linprog", flipped)
        rng = np.random.default_rng(9)
        ds = LabeledDataset(rng.standard_normal((30, 3)), rng.standard_normal(30))
        with pytest.raises(SolverStalled, match="duality gap"):
            l1_fit_linear(ds)

    @pytest.mark.parametrize("fit", [l1_fit_linear, lad_fit])
    def test_no_rows_raise_insufficient_points(self, fit):
        # an LP with no columns leaves HiGHS's model empty; the dataset
        # refuses to exist before it gets there
        with pytest.raises(InsufficientPoints):
            fit(LabeledDataset(np.zeros((0, 3)), np.zeros(0)))


class TestLadOptimal:
    @pytest.mark.parametrize("seed", range(5))
    def test_certifies_the_lp_answer_and_the_target(self, seed):
        rng = np.random.default_rng(500 + seed)
        X = rng.standard_normal((200, 5))
        w_star = np.array([1.0, -2.0, 0.5, 3.0, -1.25])
        corrupted, _ = corrupt_massart(
            LabeledDataset(X, X @ w_star), MassartSpec(0.2, FlipNegate(), seed=seed)
        )
        assert lad_optimal(corrupted, l1_fit_linear(corrupted).w)
        assert lad_optimal(corrupted, w_star)
        assert not lad_optimal(corrupted, w_star + 1e-3)

    @staticmethod
    def majority_on_a_line():
        """7 of 10 points on the line x2 = 0, where any w with w1 = 1 fits;
        off it two points fit (1, 2) and one fits (1, -3)."""
        X = np.array([[1, 0], [2, 0], [-1, 0], [3, 0], [-2, 0], [1.5, 0], [0.5, 0],
                      [1, 1], [0, 1], [2, -1]], dtype=float)
        y = X @ np.array([1.0, 2.0])
        y[-1] = X[-1] @ np.array([1.0, -3.0])
        return LabeledDataset(X, y), np.array([1.0, -3.0])

    def test_a_majority_fit_is_not_enough(self):
        ds, wrong = self.majority_on_a_line()
        assert exact_fit_mask(ds.x @ wrong, ds.y).sum() == 8
        assert not lad_optimal(ds, wrong)
        assert lad_optimal(ds, np.array([1.0, 2.0]))
        assert is_unique_lad_minimizer(ds, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("w", [np.ones(1), np.ones(3), np.ones((1, 2))])
    def test_parameter_of_another_length_is_a_dimension_mismatch(self, w):
        # used to escape as numpy's "matmul: ... mismatch" ValueError
        ds, _ = self.majority_on_a_line()
        with pytest.raises(DimensionMismatch):
            lad_optimal(ds, w)

    def test_certifies_through_a_gap_at_rounding_level(self):
        # a 60-row answer on 150 rescaled rows in R^20 certifies at round 29;
        # with OpenBLAS on x86-64 the box gap stops shrinking for one round
        # just before, at about 3e-16: rounding, not a stall
        rng = np.random.default_rng(29)
        X = rng.standard_normal((150, 20))
        w_star = rng.integers(-3, 4, size=20).astype(float)
        noisy, _ = corrupt_massart(LabeledDataset(X, X @ w_star),
                                   MassartSpec(0.2, Scale(-100.0), seed=29))
        U, y = radial_isotropize(noisy.x, gamma=0.5).apply(noisy.x, noisy.y)
        rows = np.sort(np.random.default_rng(0).choice(150, 60, replace=False))
        fit = l1_fit_linear(LabeledDataset(U[rows], y[rows]))
        assert lad_optimal(LabeledDataset(U, y), fit.w)

    def test_refusal_stops_once_the_box_gap_stops_shrinking(self, monkeypatch):
        # every round clips the dual point to the box once
        rounds = []
        clip = np.clip
        monkeypatch.setattr(np, "clip", lambda *a: rounds.append(1) or clip(*a))
        ds, wrong = self.majority_on_a_line()
        assert not lad_optimal(ds, wrong)
        assert len(rounds) <= 3 < radreg.l1.CERTIFY_ROUNDS

    def test_exact_fits_that_do_not_span_prove_nothing(self):
        X = np.array([[1, 0], [2, 0], [0, 1], [0, 2]], dtype=float)
        y = np.array([1.0, 2.0, 5.0, -5.0])
        assert not lad_optimal(LabeledDataset(X, y), np.array([1.0, 7.0]))


class TestLadCandidate:
    W_STAR = np.array([3.0, -2.0])

    @classmethod
    def tiny_rewritten_labels(cls, seed):
        """300 unit rows in R^2, labels negated at rate 0.2, and 10 of the
        rows nearly orthogonal to the target with their labels negated: a
        residual of 2|y| under the target, at most about 2e-4, can rank such
        a row into the best half."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((300, 2))
        along = np.array([2.0, 3.0]) / np.sqrt(13.0)  # orthogonal to W_STAR
        X[:10] = along + rng.uniform(-1e-4, 1e-4, 10)[:, None] * cls.W_STAR / 13.0
        X /= np.linalg.norm(X, axis=1)[:, None]
        y = X @ cls.W_STAR
        rewritten = rng.random(300) < 0.2
        rewritten[:10] = True
        y[rewritten] = -y[rewritten]
        return LabeledDataset(X, y)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_half_holding_a_rewritten_row_is_refused(self, seed):
        # least squares on a half that holds one of the ten rows misses that
        # row and lands up to about 3e-7 from the target, which lad_optimal
        # still passes within FIT_RTOL; a half fit must fit its whole half
        w, info = lad_fit(self.tiny_rewritten_labels(seed))
        np.testing.assert_allclose(w, self.W_STAR, rtol=0.0, atol=1e-12)
        assert info["lad"] == "half" and info["irls_rounds"] % 2 == 0
        assert info["lp_solves"] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_the_half_fit_waits_for_round_2_on_clean_labels(self, seed):
        # round 0, the least-squares start, already fits every row of an eta = 0
        # set with n = 20d; the half fit is still tried first after round 2
        X = np.random.default_rng(seed).standard_normal((60, 3))
        w_star = np.array([3.0, -2.0, 1.0])
        w, info = lad_fit(LabeledDataset(X, X @ w_star))
        assert (info["lad"], info["irls_rounds"], info["lp_solves"]) == ("half", 2, 0)
        np.testing.assert_allclose(w, w_star, rtol=0.0, atol=1e-12)

    @staticmethod
    def zero_third_column():
        X = np.random.default_rng(3).standard_normal((60, 3))
        X[:, 2] = 0.0
        return X

    @staticmethod
    def fewer_rows_than_dimensions():
        # the Cholesky factor of this singular 5 x 5 Gram matrix passes
        return np.random.default_rng(0).standard_normal((4, 5))

    @pytest.mark.parametrize("rows", ["zero_third_column", "fewer_rows_than_dimensions"])
    def test_rows_that_do_not_span_give_no_candidate(self, rows):
        X = getattr(self, rows)()
        w, info = lad_fit(LabeledDataset(X, X @ np.arange(1.0, X.shape[1] + 1)))
        assert (info["lad"], info["irls_rounds"], info["lp_rows"], info["lp_solves"]) == (
            "lp", 0, X.shape[0], 1)


class TestL0Bruteforce:
    def test_realizable(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 3))
        w_star = np.array([1.0, -2.0, 0.5])
        w, count = l0_fit_bruteforce(LabeledDataset(X, X @ w_star))
        assert np.allclose(w, w_star)
        assert count == 12

    def test_majority_line(self):
        x = np.concatenate([np.linspace(1, 2, 6), np.linspace(1, 2, 4) + 5.0])
        y = np.concatenate([3.0 * x[:6], -1.0 * x[6:]])
        w, count = l0_fit_bruteforce(LabeledDataset(x[:, None], y))
        assert w == pytest.approx([3.0])
        assert count == 6

    def test_relu_planted_with_corruption(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2)) + np.array([1.0, 0.0])
        w_star = np.array([2.0, 1.0])
        y = np.maximum(X @ w_star, 0.0)
        bad = rng.choice(30, size=9, replace=False)  # exactly 30% corrupted
        y[bad] = -np.abs(rng.standard_normal(9)) - 1.0
        w, count = l0_fit_bruteforce(LabeledDataset(X, y), model="relu")
        assert np.allclose(w, w_star, atol=1e-9)
        assert count >= 0.7 * 30

    def test_tie_breaks_lexicographically(self):
        # two points, two perfect single-point fits, equal counts
        x = np.array([[1.0], [1.0]])
        y = np.array([2.0, 5.0])
        w, count = l0_fit_bruteforce(LabeledDataset(x, y))
        assert count == 1
        assert w == pytest.approx([2.0])

    def test_degenerate(self):
        x = np.zeros((3, 2))
        x[:, 0] = 1.0  # every 2-subset singular
        with pytest.raises(Degenerate):
            l0_fit_bruteforce(LabeledDataset(x, np.ones(3)))

    def test_bad_model(self):
        with pytest.raises(ContractViolation):
            l0_fit_bruteforce(LabeledDataset(np.ones((2, 1)), np.ones(2)), model="cubic")


class TestSnapToRational:
    def test_third(self):
        r = snap_to_rational([0.333333333], 100)
        assert r.to_fractions() == (Fraction(1, 3),)

    def test_integer(self):
        r = snap_to_rational([2.0], 10**6)
        assert r.numerators == (2,) and r.denominators == (1,)

    def test_seventh(self):
        r = snap_to_rational([0.142857142], 10)
        assert r.to_fractions() == (Fraction(1, 7),)

    def test_idempotent_and_exact_on_rationals(self):
        vals = [Fraction(3, 7), Fraction(-22, 9), Fraction(5, 1)]
        r1 = snap_to_rational([float(v) for v in vals], 1000)
        assert r1.to_fractions() == tuple(vals)
        r2 = snap_to_rational(r1.to_floats(), 1000)
        assert r2 == r1

    def test_equal_vectors_hash_alike_whatever_their_bound(self):
        r1 = snap_to_rational([0.5, 2.0], 10)
        r2 = RationalVector((1, 2), (2, 1), max_denominator=1000)
        assert r1 == r2 and hash(r1) == hash(r2)
        assert len({r1, r2}) == 1

    def test_not_equal_to_other_types(self):
        r = snap_to_rational([0.5, 2.0], 10)
        assert r.__eq__(r.to_fractions()) is NotImplemented
        assert r != r.to_fractions() and r != [0.5, 2.0]

    def test_denominator_bound_respected(self):
        r = snap_to_rational([np.pi], 50)
        assert all(q <= 50 for q in r.denominators)

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractViolation):
            snap_to_rational([np.inf], 10)

    def test_bad_bound(self):
        with pytest.raises(ContractViolation):
            snap_to_rational([1.0], 0)

    @pytest.mark.parametrize("bound", [16.0, 2.5, "16", None])
    def test_non_integral_bound_rejected(self, bound):
        # integer arithmetic on a float bound would hand back float numerators
        with pytest.raises(ContractViolation, match="integer"):
            snap_to_rational([0.3], bound)

    def test_numpy_integer_bound(self):
        r = snap_to_rational([0.3], np.int64(16))
        assert r.to_fractions() == (Fraction(3, 10),) and type(r.max_denominator) is int

    @pytest.mark.parametrize("v, floor", [(2.5, 2), (-2.5, -3), (0.5, 0), (-0.5, -1),
                                          (1.5, 1), (-1.5, -2)])
    def test_midpoint_at_bound_one_goes_to_the_floor(self, v, floor):
        # both neighbours have denominator 1; limit_denominator keeps the floor
        r = snap_to_rational([v], 1)
        assert r.numerators == (floor,) and r.denominators == (1,)


SNAP_BOUNDS = st.one_of(st.integers(1, 20), st.sampled_from([10**6, 2**31, 2**62]),
                        st.integers(1, 2**62))
SNAP_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.integers(-10**6, 10**6).map(float),  # exact integers
    st.integers(-2000, 2000).map(lambda k: k / 2.0),  # integers and midpoints
    st.builds(lambda p, q, e: p / q + e, st.integers(-10**4, 10**4), st.integers(1, 10**4),
              st.floats(-1e-9, 1e-9)),  # near small rationals
    st.floats(-1e-300, 1e-300),  # subnormals and tiny normals
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(values=st.lists(SNAP_VALUES, min_size=1, max_size=6), bound=SNAP_BOUNDS)
@example(values=[2.5, -2.5, 0.5, -0.5, 0.0, -0.0], bound=1)
@example(values=[1e300, -1e300, 5e-324, -5e-324, 3.0, -7.0], bound=2**62)
@example(values=[1e300, -1e300, 5e-324, -5e-324], bound=1)
def test_snap_is_fraction_limit_denominator(values, bound):
    snapped = snap_to_rational(values, bound)
    expected = [Fraction(v).limit_denominator(bound) for v in values]
    assert snapped.numerators == tuple(f.numerator for f in expected)
    assert snapped.denominators == tuple(f.denominator for f in expected)
    assert all(type(p) is int and type(q) is int
               for p, q in zip(snapped.numerators, snapped.denominators))


class TestStructuralCondition:
    def test_all_clean_holds(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 2))
        w_star = np.array([1.0, 2.0])
        holds, worst = check_structural_condition(
            LabeledDataset(X, X @ w_star), w_star, direction_budget=720
        )
        assert holds and worst > 0

    def test_dominating_outlier_fails(self):
        ds = LabeledDataset(np.array([[1.0], [10.0]]), np.array([1.0, -10.0]))
        holds, worst = check_structural_condition(ds, np.array([1.0]))
        assert not holds
        assert worst == pytest.approx(1.0 - 10.0)

    def test_post_isotropy_instance_holds(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 2))
        X[:20] *= 30.0  # wild norms before rescaling
        w_star = np.array([2.0, -1.0])
        clean = LabeledDataset(X, X @ w_star)
        corrupted, _ = corrupt_massart(clean, MassartSpec(0.25, FlipNegate(), 5))
        t = radial_isotropize(corrupted.x, gamma=0.5)
        U, yt = t.apply(corrupted.x, corrupted.y)
        # the transformed instance is realizable for A^{-T} w*
        holds, worst = check_structural_condition(
            LabeledDataset(U, yt), np.linalg.solve(t.matrix.T, w_star),
            direction_budget=720,
        )
        assert holds and worst > 0


class TestL1EqualsL0UnderStructuralCondition:
    @pytest.mark.parametrize("seed", range(10))
    def test_equivalence(self, seed):
        rng = np.random.default_rng(200 + seed)
        X = rng.standard_normal((21, 2))
        w_star = np.array([3.0, -0.5])
        clean = LabeledDataset(X, X @ w_star)
        corrupted, _ = corrupt_massart(
            clean, MassartSpec(0.2, FlipNegate(), seed=300 + seed)
        )
        # the condition must be anchored at the exact-fit maximizer
        l0_w, _ = l0_fit_bruteforce(corrupted)
        holds, _ = check_structural_condition(corrupted, l0_w,
                                              direction_budget=3600)
        if not holds:
            pytest.skip("structural condition not satisfied for this draw")
        l1_w = snap_to_rational(l1_fit_linear(corrupted).w, 10**6)
        assert l1_w == snap_to_rational(l0_w, 10**6)
