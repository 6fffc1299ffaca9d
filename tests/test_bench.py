import json

import numpy as np
import pytest

from radreg import bench
from radreg.bench import (
    OUTLIER_COUNT,
    SyntheticSpec,
    default_target,
    exact_recovery_bench,
    make_outlier_dataset,
    make_synthetic_dataset,
    margin_fraction,
    method_registry,
)
from radreg.data import LabeledDataset, load_dataset_csv, save_dataset_csv
from radreg.errors import ContractViolation, DimensionMismatch, InsufficientPoints, MalformedCsv
from radreg.noise import MassartSpec, Scale, corrupt_massart

from oracles import recovery_rate


class TestSyntheticMixture:
    def test_reference_configuration_shape(self):
        X = make_synthetic_dataset(SyntheticSpec(d=30, n=120, seed=0)).x
        assert X.shape == (120, 30)

    def test_deterministic(self):
        a = make_synthetic_dataset(SyntheticSpec(d=6, n=200, seed=5)).x
        b = make_synthetic_dataset(SyntheticSpec(d=6, n=200, seed=5)).x
        assert np.array_equal(a, b)

    def test_component_means_law_of_large_numbers(self):
        d, n = 5, 100000
        X = make_synthetic_dataset(SyntheticSpec(d=d, n=n, seed=9)).x
        far = np.any(X > d / 2.0, axis=1)
        near_mean = X[~far].mean(axis=0)
        e1 = np.zeros(d)
        e1[0] = 1.0
        tol = 3.0 * (1.0 / d) / np.sqrt(n / (2.0 * d))
        assert np.max(np.abs(near_mean - e1)) <= 3 * tol  # near comp is half the mass
        for i in range(d):
            comp = X[far & (X[:, i] > d / 2.0)]
            mean_i = comp.mean(axis=0)
            expected = np.zeros(d)
            expected[i] = float(d)
            assert np.max(np.abs(mean_i - expected)) <= tol

    def test_default_target(self):
        assert np.array_equal(default_target(5), [1.0, 10.0, 1.0, 1.0, 1.0])
        assert np.array_equal(default_target(1), [1.0])

    def test_labels(self):
        spec = SyntheticSpec(d=3, n=50, seed=1)
        lin = make_synthetic_dataset(spec, model="linear")
        rel = make_synthetic_dataset(spec, model="relu")
        assert np.array_equal(lin.x, rel.x)
        assert np.array_equal(rel.y, np.maximum(lin.y, 0.0))

    @pytest.mark.parametrize("model", ["Linear", "cubic"])
    def test_unknown_model_is_rejected(self, model):
        # a misspelt model must not fall through to ReLU labels
        with pytest.raises(ContractViolation, match='"linear" or "relu"'):
            make_synthetic_dataset(SyntheticSpec(d=3, n=10), model=model)

    @pytest.mark.parametrize("d, n", [(2.5, 10), (3, 10.0), (0, 10), (3, -1)])
    def test_sizes_must_be_integers_of_at_least_1(self, d, n):
        # a float d used to reach np.ones(d) and raise a bare TypeError
        with pytest.raises(ContractViolation, match="must be an integer"):
            SyntheticSpec(d=d, n=n)

    def test_target_of_the_wrong_shape(self):
        with pytest.raises(ContractViolation, match="w_star"):
            SyntheticSpec(d=3, n=10, w_star=[1.0, 2.0])

    @pytest.mark.parametrize("n", [OUTLIER_COUNT - 1, OUTLIER_COUNT])
    def test_outlier_family_needs_more_points_than_outliers(self, n):
        with pytest.raises(ContractViolation, match="OUTLIER_COUNT"):
            make_outlier_dataset(SyntheticSpec(d=3, n=n))

    def test_outlier_family(self):
        spec = SyntheticSpec(d=5, n=200, seed=2)
        ds = make_outlier_dataset(spec)
        norms = np.linalg.norm(ds.x, axis=1)
        assert (norms > 50.0).sum() == 4


class TestExactRecoveryBench:
    def test_zero_noise_everybody_wins(self):
        rep = exact_recovery_bench(
            ["rescaled-l1", "naive-l1", "normalized-l1", "least-squares"],
            d=3, n=40, eta_grid=[0.0], trials=5, seed=3,
        )
        for row in rep.rows:
            assert row.recovery_rate == 1.0

    def test_desk_scale_ordering(self):
        rep = exact_recovery_bench(
            ["rescaled-l1", "naive-l1"], d=5, n=200, eta_grid=[0.25],
            trials=25, seed=4, instance="outlier",
        )
        assert recovery_rate(rep, "rescaled-l1") >= recovery_rate(rep, "naive-l1")
        assert recovery_rate(rep, "rescaled-l1") >= 0.9

    def test_report_reproducible(self):
        kwargs = dict(d=3, n=60, eta_grid=[0.1, 0.3], trials=4, seed=11)
        a = exact_recovery_bench(["naive-l1", "least-squares"], **kwargs)
        b = exact_recovery_bench(["naive-l1", "least-squares"], **kwargs)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_timing_excluded_by_default(self):
        rep = exact_recovery_bench(["naive-l1"], d=2, n=20, trials=2, seed=1)
        assert "wall_time_s" not in rep.to_json()["rows"][0]
        assert "wall_time_s" in rep.to_json(include_timing=True)["rows"][0]

    def test_sample_size_grid(self):
        rep = exact_recovery_bench(["naive-l1"], d=2, eta=0.0,
                                   n_grid=[10, 20], trials=3, seed=2)
        assert [row.grid_value for row in rep.rows] == [10.0, 20.0]
        assert all(row.grid_param == "n" for row in rep.rows)

    def test_reference_protocol_shape(self):
        # the published sweep shapes: noise varied at 120 samples, and
        # sample size varied at eta = 0.25, in the d=30 configuration
        rep_eta = exact_recovery_bench(["rescaled-l1"], d=30, n=120,
                                       eta_grid=[0.0, 0.25], trials=2, seed=9)
        assert rep_eta.config["n"] == 120
        assert recovery_rate(rep_eta, "rescaled-l1", 0.0) == 1.0
        rep_n = exact_recovery_bench(["rescaled-l1"], d=30, eta=0.25,
                                     n_grid=[120, 240], trials=2, seed=9)
        assert [r.grid_value for r in rep_n.rows] == [120.0, 240.0]

    def test_crashing_trial_counts_as_failure(self):
        # too few samples for the dimension: every trial raises inside
        rep = exact_recovery_bench(["rescaled-l1"], d=4, n=3, trials=2, seed=5)
        assert rep.rows[0].recovery_rate == 0.0

    @pytest.mark.parametrize("trials", [2.5, 0])
    def test_trials_must_be_an_integer_of_at_least_1(self, trials):
        with pytest.raises(ContractViolation, match="trials"):
            exact_recovery_bench(["least-squares"], d=2, n=10, trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [-2, 1.0, None])
    def test_seed_must_be_an_integer_of_at_least_0(self, seed):
        # a negative seed used to raise numpy's untyped ValueError
        with pytest.raises(ContractViolation, match="seed"):
            exact_recovery_bench(["least-squares"], d=2, n=10, trials=1, seed=seed)
        with pytest.raises(ContractViolation, match="seed"):
            SyntheticSpec(d=2, n=10, seed=seed)

    def test_a_uint64_seed_is_a_valid_seed(self):
        # the benchmark's sweep seeds are drawn as uint64 values
        seed = np.uint64(2**64 - 1)
        rep = exact_recovery_bench(["least-squares"], d=2, n=10, trials=1, seed=seed)
        assert rep.config["seed"] == 2**64 - 1 and type(rep.config["seed"]) is int
        spec = SyntheticSpec(d=2, n=10, seed=seed)
        assert spec.seed == 2**64 - 1 and type(spec.seed) is int

    def test_unknown_method_rejected(self):
        with pytest.raises(ContractViolation):
            exact_recovery_bench(["magic"], d=2, n=10, trials=1, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"eta_grid": [0.0], "n_grid": [10]}, "at most one"),
        ({"instance": "bogus"}, "instance"),
    ])
    def test_bad_arguments_are_rejected_before_any_trial(self, kwargs, message, monkeypatch):
        monkeypatch.setattr(bench, "make_synthetic_dataset",
                            lambda *args, **kw: pytest.fail("a trial ran"))
        with pytest.raises(ContractViolation, match=message):
            exact_recovery_bench(["least-squares"], d=2, n=10, trials=1, seed=0, **kwargs)


class TestMarginFraction:
    def test_perfect_fit_zero_margin(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 3))
        w = np.array([1.0, 2.0, 3.0])
        assert margin_fraction(w, LabeledDataset(X, X @ w), 0.0) == 1.0

    def test_all_misses(self):
        ds = LabeledDataset(np.ones((10, 2)), np.full(10, 10.0))
        assert margin_fraction(np.zeros(2), ds, 2.0) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_recount(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = LabeledDataset(rng.standard_normal((50, 2)), rng.standard_normal(50))
        w = rng.standard_normal(2)
        frac = margin_fraction(w, ds, 1.0)
        count = sum(1 for xi, yi in zip(ds.x, ds.y) if abs(xi @ w - yi) <= 1.0)
        assert frac == count / 50

    def test_empty_testset(self):
        # the test set itself refuses to exist
        with pytest.raises(InsufficientPoints):
            margin_fraction(np.ones(2), LabeledDataset(np.empty((0, 2)), []), 1.0)

    @pytest.mark.parametrize("w", [np.ones(2), np.ones(4), np.ones((1, 3)), 1.0])
    def test_parameter_of_another_dimension(self, w):
        ds = LabeledDataset(np.ones((5, 3)), np.zeros(5))
        with pytest.raises(DimensionMismatch):
            margin_fraction(w, ds, 1.0)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_margin_not_finite_and_nonnegative(self, margin):
        # NaN compares false with everything, so `margin < 0` alone lets it through
        ds = LabeledDataset(np.ones((5, 3)), np.zeros(5))
        with pytest.raises(ContractViolation, match="margin"):
            margin_fraction(np.ones(3), ds, margin)


class TestCsvRoundTrip:
    def test_two_row_hand_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,y\n1.5,-2.25,3.75\n0.125,4.0,-8.5\n")
        ds = load_dataset_csv(path)
        assert ds.m == 2 and ds.d == 2
        assert np.array_equal(ds.x, [[1.5, -2.25], [0.125, 4.0]])
        assert np.array_equal(ds.y, [3.75, -8.5])

    def test_text_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(MalformedCsv) as exc_info:
            load_dataset_csv(path)
        assert exc_info.value.diagnostics == {"row": 3, "column": 2}

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(DimensionMismatch):
            load_dataset_csv(path)

    def test_large_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = LabeledDataset(rng.standard_normal((1000, 410)) * 100,
                            rng.standard_normal(1000))
        path = tmp_path / "big.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)


@pytest.mark.slow
class TestDrugStylePipeline:
    def test_end_to_end_on_synthetic_standin(self):
        # same shape as the published real-data run: 3084 train / 1000 test,
        # 410 dims; labels scaled by -100 at rate eta on the training side
        rng = np.random.default_rng(8)
        d, m_train, m_test = 410, 3084, 1000
        w_star = rng.integers(-3, 4, size=d).astype(float)
        X_train = rng.standard_normal((m_train, d))
        X_test = rng.standard_normal((m_test, d))
        train = LabeledDataset(X_train, X_train @ w_star)
        test = LabeledDataset(X_test, X_test @ w_star)
        corrupted, _ = corrupt_massart(
            train, MassartSpec(0.2, Scale(-100.0), seed=9)
        )
        registry = method_registry(ridge_coeff=1.0)
        fractions = {}
        for name in ("rescaled-l1", "least-squares", "ridge"):
            snapped = registry[name](corrupted, 10**6)
            fractions[name] = margin_fraction(snapped.to_floats(), test, 2.0)
        assert all(0.0 <= v <= 1.0 for v in fractions.values())
        # the clean test set is realizable, so the robust fit nails it
        assert fractions["rescaled-l1"] == 1.0
        assert fractions["rescaled-l1"] >= fractions["least-squares"]
