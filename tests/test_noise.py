import json
import math

import numpy as np
import pytest

from radreg.bench import SyntheticSpec, make_synthetic_dataset
from radreg.data import LabeledDataset
from radreg.errors import ContractViolation, InvalidNoiseRate, SimulationInfeasible
from radreg.noise import (
    Constant,
    FlipNegate,
    Gated,
    MassartSpec,
    Scale,
    corrupt_massart,
    corrupt_oblivious,
    gated_flip,
    inflated_massart_rate,
    strategy_from_json,
)


def linear_dataset(m, d, seed, w_star=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    w = np.ones(d) if w_star is None else np.asarray(w_star)
    return LabeledDataset(X, X @ w), w


class TestCorruptMassart:
    def test_zero_noise_is_identity(self):
        ds, _ = linear_dataset(50, 3, seed=0)
        out, record = corrupt_massart(ds, MassartSpec(0.0, FlipNegate(), seed=1))
        assert np.array_equal(out.y, ds.y)
        assert not record.mask.any()
        assert not record.corruptible.any()

    def test_gated_flip_reference_adversary(self):
        # only points with a coordinate beyond the gate may flip, and flipped
        # labels equal the negated clean value
        spec = SyntheticSpec(d=4, n=400, seed=3)
        clean = make_synthetic_dataset(spec)
        out, record = corrupt_massart(
            clean, MassartSpec(0.4, gated_flip(spec.d / 2.0), seed=5)
        )
        gate = np.any(clean.x > spec.d / 2.0, axis=1)
        assert record.mask.sum() > 0
        assert np.all(gate[record.mask])
        assert np.allclose(out.y[record.mask], -clean.y[record.mask])
        assert np.array_equal(out.y[~record.mask], clean.y[~record.mask])

    def test_corrupted_fraction_concentrates(self):
        ds, _ = linear_dataset(10000, 2, seed=4)
        _, record = corrupt_massart(ds, MassartSpec(0.3, FlipNegate(), seed=6))
        frac = record.mask.mean()
        assert abs(frac - 0.3) <= 0.015  # ~5 sigma of Binomial(10000, 0.3)

    def test_flag_mask_independent_of_data(self):
        ds_a, _ = linear_dataset(200, 3, seed=10)
        ds_b, _ = linear_dataset(200, 5, seed=11)  # different covariates
        _, rec_a = corrupt_massart(ds_a, MassartSpec(0.25, FlipNegate(), seed=42))
        _, rec_b = corrupt_massart(ds_b, MassartSpec(0.25, Scale(7.0), seed=42))
        assert np.array_equal(rec_a.corruptible, rec_b.corruptible)

    def test_gating_refines_never_extends(self):
        ds, _ = linear_dataset(500, 3, seed=12)
        _, record = corrupt_massart(ds, MassartSpec(0.4, Gated(0.5, FlipNegate()), seed=13))
        assert np.array_equal(record.mask, record.corruptible & np.any(ds.x > 0.5, axis=1))
        assert record.mask.sum() < record.corruptible.sum()

    def test_deterministic_given_seed(self):
        ds, _ = linear_dataset(300, 4, seed=14)
        out1, _ = corrupt_massart(ds, MassartSpec(0.3, Scale(-100.0), seed=99))
        out2, _ = corrupt_massart(ds, MassartSpec(0.3, Scale(-100.0), seed=99))
        assert np.array_equal(out1.y, out2.y)

    def test_rate_out_of_range(self):
        with pytest.raises(InvalidNoiseRate):
            MassartSpec(0.5, FlipNegate(), seed=0)
        with pytest.raises(InvalidNoiseRate):
            MassartSpec(-0.1, FlipNegate(), seed=0)

    def test_rate_changed_after_construction_is_rejected(self):
        ds, _ = linear_dataset(20, 2, seed=0)
        spec = MassartSpec(0.2, FlipNegate(), seed=0)
        spec.eta = 0.7
        with pytest.raises(InvalidNoiseRate):
            corrupt_massart(ds, spec)

    def test_constant_strategy(self):
        ds, _ = linear_dataset(100, 2, seed=15)
        out, record = corrupt_massart(ds, MassartSpec(0.3, Constant(7.5), seed=16))
        assert np.all(out.y[record.mask] == 7.5)


class TestCorruptOblivious:
    def test_zero_rate(self):
        y = np.arange(10.0)
        assert np.array_equal(corrupt_oblivious(y, 0.0, 5.0, seed=1), y)

    def test_full_support(self):
        y = np.zeros(64)
        out = corrupt_oblivious(y, 1.0, 5.0, seed=2)
        assert np.all(np.abs(out) == 5.0)

    def test_exact_sparsity(self):
        y = np.linspace(0, 1, 1000)
        out = corrupt_oblivious(y, 0.25, 3.0, seed=3)
        assert int((out != y).sum()) == 250

    def test_floor_rounding(self):
        y = np.zeros(10)
        out = corrupt_oblivious(y, 0.19, 1.0, seed=4)
        assert int((out != y).sum()) == 1  # floor(1.9)

    @pytest.mark.parametrize("eta, magnitude", [(-0.1, 5.0), (1.5, 5.0), (math.nan, 5.0),
                                                (0.3, math.nan), (0.3, math.inf), (0.3, -math.inf)])
    def test_bad_arguments_are_contract_violations(self, eta, magnitude):
        # a NaN or infinite magnitude used to write NaN or +-inf labels
        with pytest.raises(ContractViolation):
            corrupt_oblivious(np.zeros(10), eta, magnitude)


@pytest.mark.parametrize("seed", [-1, -5, 2.0, "3", None])
def test_a_seed_that_is_not_an_integer_of_at_least_0_is_a_contract_violation(seed):
    # a negative seed used to raise numpy's untyped ValueError
    with pytest.raises(ContractViolation, match="seed"):
        MassartSpec(0.2, FlipNegate(), seed)
    with pytest.raises(ContractViolation, match="seed"):
        corrupt_oblivious(np.zeros(10), 0.0, 1.0, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**63 - 1, np.uint64(2**64 - 1), np.int64(7)])
def test_seeds_of_every_integer_type_are_kept_as_ints(seed):
    spec = MassartSpec(0.2, FlipNegate(), seed)
    assert type(spec.seed) is int and spec.seed == int(seed)


class TestInflatedRate:
    def test_delta_one_is_identity(self):
        assert inflated_massart_rate(0.3, 500, 1.0) == 0.3

    def test_reference_value(self):
        rate = inflated_massart_rate(0.2, 1000, 0.1)
        assert abs(rate - 0.23393070212207556) < 1e-12

    def test_infeasible(self):
        with pytest.raises(SimulationInfeasible) as info:
            inflated_massart_rate(0.49, 100, 0.01)
        assert info.value.diagnostics == {"rate": pytest.approx(0.49 + np.sqrt(np.log(100) / 200))}

    def test_bad_args(self):
        with pytest.raises(ContractViolation):
            inflated_massart_rate(0.2, 0, 0.1)
        with pytest.raises(ContractViolation):
            inflated_massart_rate(0.2, 100, 0.0)

    @pytest.mark.parametrize("eta", [math.nan, -1.0])
    def test_nan_or_negative_eta_is_an_invalid_noise_rate(self, eta):
        # used to return nan and -0.893
        with pytest.raises(InvalidNoiseRate):
            inflated_massart_rate(eta, 100, 0.1)

    @pytest.mark.parametrize("m", [math.nan, 2.5])
    def test_m_must_be_an_integer_of_at_least_1(self, m):
        with pytest.raises(ContractViolation, match="m must be an integer"):
            inflated_massart_rate(0.1, m, 0.1)

    def test_binomial_coverage_property(self):
        # the operative content of the simulation lemma: an inflated-rate
        # Massart adversary flags at least eta*m samples w.p. >= 1 - delta
        eta, m, delta = 0.2, 1000, 0.1
        rate = inflated_massart_rate(eta, m, delta)
        rng = np.random.default_rng(7)
        draws = rng.binomial(m, rate, size=10000)
        assert (draws >= eta * m).mean() >= (1 - delta) - 0.02


class TestStrategyJson:
    @pytest.mark.parametrize("obj", [
        {"kind": "flip-negate"},
        {"kind": "scale", "factor": -100.0},
        {"kind": "constant", "value": 3.5},
        {"kind": "gated",
         "predicate": {"kind": "any-coord-above", "threshold": 15.0},
         "inner": {"kind": "flip-negate"}},
    ])
    def test_roundtrip(self, obj):
        strategy = strategy_from_json(obj)
        assert strategy.to_json() == obj
        # and it survives an actual JSON encode/decode
        assert strategy_from_json(json.loads(json.dumps(strategy.to_json()))).to_json() == obj

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            strategy_from_json({"kind": "nonsense"})

    @pytest.mark.parametrize("obj, named", [
        # a missing threshold used to read as an unknown predicate kind
        ({"kind": "gated", "predicate": {"kind": "any-coord-above"},
          "inner": {"kind": "flip-negate"}}, "'threshold'"),
        ({"kind": "scale"}, "'factor'"),
        ({"kind": "constant", "value": "abc"}, "'value'"),
        ({"kind": "gated", "predicate": {"kind": "any-coord-above", "threshold": None},
          "inner": {"kind": "flip-negate"}}, "'threshold'"),
        ({"kind": "gated", "predicate": {"kind": "nonsense"}, "inner": {"kind": "flip-negate"}},
         "'predicate'"),
        ({"kind": "gated", "predicate": {"kind": "any-coord-above", "threshold": 1.0}},
         "unknown strategy None"),
        # non-finite numbers used to pass through to the summary as NaN
        ({"kind": "scale", "factor": float("nan")}, "'factor'"),
        ({"kind": "constant", "value": "inf"}, "'value'"),
        ({"kind": "gated", "predicate": {"kind": "any-coord-above", "threshold": float("-inf")},
          "inner": {"kind": "flip-negate"}}, "'threshold'"),
    ])
    def test_malformed_fields_are_named(self, obj, named):
        with pytest.raises(ContractViolation, match=named):
            strategy_from_json(obj)

    def test_spec_roundtrip(self):
        spec = MassartSpec(0.25, gated_flip(15.0), seed=7)
        obj = json.loads(json.dumps(spec.to_json()))
        again = MassartSpec(obj["eta"], strategy_from_json(obj["strategy"]), obj["seed"])
        assert again.eta == spec.eta and again.seed == spec.seed
        assert again.strategy.to_json() == spec.strategy.to_json()
