"""Synthetic data generation, baseline fitters, and the recovery-rate harness.

The synthetic covariate distribution is the Gaussian mixture

    1/2 N(e1, I/d^2)  +  (1/2d) sum_i N(d e_i, I/d^2),

paired by default with the gated adversary that flips labels to the negated
clean value only for points with some coordinate above d/2 (exactly the
points from the far mixture components). Exact recovery means the snapped
output equals the planted parameter as a tuple of reduced fractions; no
distance threshold is ever involved.

Trials are seeded through ``numpy.random.SeedSequence([seed, grid_idx,
trial])`` so every report is reproducible bit for bit from (seed, config).
"""

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import LabeledDataset
from .errors import ContractViolation, RadregError
from .isotropy import _unit_rows
from .l1 import _check_positive_int, lad_fit, snap_to_rational
from .linear import recover_linear
from .noise import MassartSpec, corrupt_massart, gated_flip


def default_target(d):
    """The reference experiment target: all-ones plus 9 on the second axis."""
    w = np.ones(d)
    if d >= 2:
        w[1] += 9.0
    return w


@dataclass
class SyntheticSpec:
    d: int
    n: int
    seed: int = 0
    w_star: np.ndarray | None = None

    def __post_init__(self):
        self.d = _check_positive_int(self.d, "d")
        self.n = _check_positive_int(self.n, "n")
        self.seed = _check_positive_int(self.seed, "seed", least=0)
        if self.w_star is None:
            self.w_star = default_target(self.d)
        self.w_star = np.asarray(self.w_star, dtype=float)
        if self.w_star.shape != (self.d,):
            raise ContractViolation("w_star must have shape (d,)")


def make_synthetic_dataset(spec, model="linear"):
    """Mixture covariates (see module doc) with clean labels w*.x, or
    max(w*.x, 0) for the "relu" model; any other model is a
    ContractViolation."""
    if model not in ("linear", "relu"):
        raise ContractViolation(f'model must be "linear" or "relu", got {model!r}')
    rng = np.random.default_rng(spec.seed)
    d, n = spec.d, spec.n
    pick_near = rng.random(n) < 0.5
    comps = rng.integers(0, d, size=n)
    noise = rng.standard_normal((n, d)) / d
    means = np.zeros((n, d))
    means[pick_near, 0] = 1.0
    far = ~pick_near
    means[far, comps[far]] = float(d)
    X = means + noise
    z = X @ spec.w_star
    return LabeledDataset(X, z if model == "linear" else np.maximum(z, 0.0))


OUTLIER_COUNT = 4      # far points of the outlier family
OUTLIER_SCALE = 100.0  # their approximate norm


def make_outlier_dataset(spec):
    """Dense cluster at e1 plus OUTLIER_COUNT axis-aligned far outliers, labelled w*.x.

    The far points have norm ~OUTLIER_SCALE, so a single flipped far label
    can dominate the raw l1 objective along its axis while the clean cluster
    mass is far too small to resist; rescaling neutralizes exactly this.
    Pair with a gate at OUTLIER_SCALE / 2 so only the outliers are corruptible.
    """
    if not OUTLIER_COUNT < spec.n:
        raise ContractViolation(f"need n > OUTLIER_COUNT = {OUTLIER_COUNT}")
    rng = np.random.default_rng(spec.seed)
    d, n = spec.d, spec.n
    near = rng.standard_normal((n - OUTLIER_COUNT, d)) / d
    near[:, 0] += 1.0
    comps = rng.integers(0, d, size=OUTLIER_COUNT)
    far = rng.standard_normal((OUTLIER_COUNT, d)) / d
    far[np.arange(OUTLIER_COUNT), comps] += OUTLIER_SCALE
    X = np.vstack([near, far])[rng.permutation(n)]
    return LabeledDataset(X, X @ spec.w_star)


# name -> covariate family of exact_recovery_bench; each maker is looked up when a trial
# runs, so a maker replaced on the module is the one that runs
INSTANCE_FAMILIES = {"mixture": lambda spec: make_synthetic_dataset(spec),
                     "outlier": lambda spec: make_outlier_dataset(spec)}


# --- fitting methods ----------------------------------------------------------

def _fit_rescaled_l1(samples, max_denominator):
    return recover_linear(samples, max_denominator).w_snapped


def _fit_naive_l1(samples, max_denominator):
    return snap_to_rational(lad_fit(samples)[0], max_denominator)


def _fit_normalized_l1(samples, max_denominator):
    scaled = LabeledDataset(*_unit_rows(samples.x, samples.y))
    return snap_to_rational(lad_fit(scaled)[0], max_denominator)


def _fit_least_squares(samples, max_denominator):
    w, *_ = np.linalg.lstsq(samples.x, samples.y, rcond=None)
    return snap_to_rational(w, max_denominator)


def make_ridge(coeff):
    def _fit_ridge(samples, max_denominator):
        X, y = samples.x, samples.y
        w = np.linalg.solve(X.T @ X + coeff * np.eye(samples.d), X.T @ y)
        return snap_to_rational(w, max_denominator)
    return _fit_ridge


def method_registry(ridge_coeff=1.0):
    """Name -> fitter(samples, max_denominator) -> RationalVector."""
    return {
        "rescaled-l1": _fit_rescaled_l1,
        "naive-l1": _fit_naive_l1,
        "normalized-l1": _fit_normalized_l1,
        "least-squares": _fit_least_squares,
        "ridge": make_ridge(ridge_coeff),
    }


# --- the recovery-rate benchmark ----------------------------------------------

@dataclass
class BenchRow:
    method: str
    grid_param: str
    grid_value: float
    trials: int
    successes: int
    recovery_rate: float
    two_stderr: float
    wall_time_s: float

    def to_json(self, include_timing=False):
        obj = {
            "method": self.method,
            "grid_param": self.grid_param,
            "grid_value": self.grid_value,
            "trials": self.trials,
            "successes": self.successes,
            "recovery_rate": self.recovery_rate,
            "two_stderr": self.two_stderr,
        }
        if include_timing:
            obj["wall_time_s"] = self.wall_time_s
        return obj


@dataclass
class BenchReport:
    config: dict
    rows: list = field(default_factory=list)

    def to_json(self, include_timing=False):
        return {
            "config": self.config,
            "rows": [row.to_json(include_timing) for row in self.rows],
        }


def _trial_seeds(seed, grid_idx, trial):
    root = np.random.default_rng(np.random.SeedSequence([seed, grid_idx, trial]))
    return int(root.integers(2**63)), int(root.integers(2**63))


def exact_recovery_bench(methods, *, d, n=120, eta=0.25, eta_grid=None, n_grid=None,
                         trials=200, seed=0, instance="mixture"):
    """Exact-recovery rates over a noise grid or a sample-size grid.

    One of eta_grid / n_grid selects the sweep (a single point is used when
    both are None). ``instance`` picks the covariate family: "mixture" (the
    reference Gaussian mixture, gate at d/2) or "outlier" (cluster plus far
    outliers, gate at OUTLIER_SCALE/2). Every method sees the same corrupted
    dataset per trial; a trial crash counts as a failure for the crashing
    method only. Success is snapped-exact equality, at denominator 10**6,
    with the planted parameter ``default_target(d)``. The ridge baseline
    takes ``method_registry``'s coefficient.
    """
    trials = _check_positive_int(trials, "trials")
    seed = _check_positive_int(seed, "seed", least=0)
    if eta_grid is not None and n_grid is not None:
        raise ContractViolation("pass at most one of eta_grid / n_grid")
    if instance not in INSTANCE_FAMILIES:
        raise ContractViolation(f"instance must be one of {tuple(INSTANCE_FAMILIES)}")
    registry = method_registry()
    unknown = [name for name in methods if name not in registry]
    if unknown:
        raise ContractViolation(f"unknown methods: {unknown}")
    if eta_grid is not None:
        grid_param, grid = "eta", list(eta_grid)
    elif n_grid is not None:
        grid_param, grid = "n", list(n_grid)
    else:
        grid_param, grid = "eta", [eta]

    w_star = default_target(d)
    target = tuple(Fraction(v) for v in w_star)
    report = BenchReport(config={
        "d": d, "n": n, "eta": eta, "grid_param": grid_param, "grid": grid,
        "trials": trials, "seed": seed, "max_denominator": 10**6,
        "w_star": [float(v) for v in w_star],
        "methods": list(methods),
        "instance": instance,
    })

    strategy = gated_flip(d / 2.0 if instance == "mixture" else OUTLIER_SCALE / 2.0)
    for gi, gval in enumerate(grid):
        cur_eta = float(gval) if grid_param == "eta" else eta
        cur_n = int(gval) if grid_param == "n" else n
        successes = {name: 0 for name in methods}
        elapsed = {name: 0.0 for name in methods}
        for trial in range(trials):
            data_seed, noise_seed = _trial_seeds(seed, gi, trial)
            clean = INSTANCE_FAMILIES[instance](SyntheticSpec(d=d, n=cur_n, seed=data_seed))
            corrupted, _ = corrupt_massart(clean, MassartSpec(cur_eta, strategy, noise_seed))
            for name in methods:
                start = time.perf_counter()
                try:
                    snapped = registry[name](corrupted, 10**6)
                    if snapped.to_fractions() == target:
                        successes[name] += 1
                except (RadregError, np.linalg.LinAlgError):
                    pass
                elapsed[name] += time.perf_counter() - start
        for name in methods:
            rate = successes[name] / trials
            report.rows.append(BenchRow(
                method=name,
                grid_param=grid_param,
                grid_value=float(gval),
                trials=trials,
                successes=successes[name],
                recovery_rate=rate,
                two_stderr=2.0 * math.sqrt(rate * (1.0 - rate) / trials),
                wall_time_s=elapsed[name],
            ))
    return report


def margin_fraction(w, testset, margin):
    """Fraction of the test set with |w.x - y| within the margin.

    Raises DimensionMismatch unless w has the test set's dimension d, and
    ContractViolation unless the margin is finite and nonnegative.
    """
    if not (margin >= 0.0 and math.isfinite(margin)):
        raise ContractViolation(f"margin must be finite and >= 0, got {margin}")
    w = testset.parameter(w)
    return float(np.mean(np.abs(testset.x @ w - testset.y) <= margin))
