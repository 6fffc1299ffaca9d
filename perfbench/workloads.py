"""The four benchmark workloads: seeded input generators and pipeline calls.

A workload is a list of ``units`` seeded inputs. Unit ``i`` of seed ``s``
is built from ``numpy.random.SeedSequence([s, i])`` alone, so the same seed
always gives the same inputs and the program only ever sees the generated
``LabeledDataset``s (or, for the sweep, the seed handed to the public
harness).

Each output is hashed twice. ``tokens`` hold every snapped output in full
(numerators and denominators). ``marks`` hold only whether it equals the
planted target, or the type of the exception it raised. A snapped value
that misses the target is float noise rounded to a rational, and it changes
with the BLAS kernels (AVX2 and AVX-512 OpenBLAS builds give different
misses on the sweep), so the stored references are digests of the marks.

Pipeline functions are looked up on their modules at call time
(``linear.recover_linear``, not a name bound at import), so the outside-in
tracer in ``layers.py`` sees every call once it has wrapped them.
"""

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from radreg import bench, linear, relu
from radreg.bench import default_target
from radreg.data import LabeledDataset
from radreg.errors import RadregError
from radreg.noise import FlipNegate, MassartSpec, Scale, corrupt_massart
from radreg.relu import EllipsoidConfig

SWEEP_METHODS = ("rescaled-l1", "naive-l1", "normalized-l1", "least-squares", "ridge")
SWEEP_ETAS = (0.0, 0.1, 0.2, 0.3, 0.4)
SWEEP_TRIALS = 4   # per eta and harness call; a run makes 10 calls with their own seeds
SWEEP_D = 30
MARKS = ("miss", "hit")


@dataclass
class Outcome:
    """What one unit produced: digest tokens, counts and its call time."""

    seconds: float
    tokens: list
    marks: list
    exact: int
    baseline_exact: int = 0
    trials: int = 1
    attempted: int = 1
    failures: Counter = field(default_factory=Counter)
    method_s: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Workload:
    name: str
    units: int
    make: object   # (seed, index) -> unit input
    run: object    # unit input -> Outcome


def unit_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def rational_token(rational):
    return ",".join(f"{n}/{d}" for n, d in zip(rational.numerators, rational.denominators))


def digest(tokens):
    return hashlib.sha256("\n".join(tokens).encode()).hexdigest()


def _fractions(w):
    return tuple(Fraction(v) for v in w)


def _timed_fit(call, samples, w_star):
    """One pipeline call on one instance; any exception is a counted failure."""
    start = time.perf_counter()
    try:
        report = call(samples)
    except Exception as exc:  # the benchmark must outlive every failure
        seconds = time.perf_counter() - start
        name = type(exc).__name__
        return Outcome(seconds, [f"!{name}"], [f"!{name}"], 0, failures=Counter({name: 1}))
    seconds = time.perf_counter() - start
    exact = int(report.w_snapped.to_fractions() == _fractions(w_star))
    return Outcome(seconds, [rational_token(report.w_snapped)], [MARKS[exact]], exact)


# --- lad_highdim ---------------------------------------------------------------
# The 410-dim TestDrugStylePipeline stand-in scaled to d=100, keeping
# m/d = 7.5 (3084/410): Gaussian covariates, integer target in [-3, 3],
# labels scaled by -100 at eta=0.2. The LP is still 96% of each fit.

def make_lad_highdim(seed, index, d=100, m=750):
    rng = unit_rng(seed, index)
    w_star = rng.integers(-3, 4, size=d).astype(float)
    X = rng.standard_normal((m, d))
    noisy, _ = corrupt_massart(
        LabeledDataset(X, X @ w_star),
        MassartSpec(0.2, Scale(-100.0), int(rng.integers(2**63))),
    )
    return noisy, w_star


def run_linear(unit):
    samples, w_star = unit
    return _timed_fit(lambda s: linear.recover_linear(s), samples, w_star)


# --- heavy_recursion -----------------------------------------------------------
# Exactly 30% of rows live in span(e1, e2) and another 20% in span(e1..e6),
# so the root level finds a heavy plane and the complement holds 200 of 700
# rows on a 4-dim subspace of its 14 dimensions: exactly 4/14, which is not
# heavy. One heavy level, then two transform leaves.

def make_heavy_recursion(seed, index, d=16, m=1000):
    rng = unit_rng(seed, index)
    w_star = rng.integers(-5, 6, size=d).astype(float)
    X = rng.standard_normal((m, d))
    n_plane, n_six = (3 * m) // 10, m // 5
    X[:n_plane, 2:] = 0.0
    X[n_plane:n_plane + n_six, 6:] = 0.0
    X = X[rng.permutation(m)]
    noisy, _ = corrupt_massart(
        LabeledDataset(X, X @ w_star),
        MassartSpec(0.2, FlipNegate(), int(rng.integers(2**63))),
    )
    return noisy, w_star


# --- relu_ellipsoid ------------------------------------------------------------
# The criterion-5 shifted-Gaussian family of the acceptance tests at d=20:
# the mean shift along w* keeps the target's positive side heavy.

RELU_CONFIG = EllipsoidConfig(initial_radius=30.0, max_denominator=16)


def make_relu_ellipsoid(seed, index, d=20, m=5000):
    rng = unit_rng(seed, index)
    w_star = rng.integers(-5, 6, size=d).astype(float)
    while not w_star.any():
        w_star = rng.integers(-5, 6, size=d).astype(float)
    X = rng.standard_normal((m, d)) + 2.0 * w_star / np.linalg.norm(w_star)
    noisy, _ = corrupt_massart(
        LabeledDataset(X, np.maximum(X @ w_star, 0.0)),
        MassartSpec(0.3, FlipNegate(), int(rng.integers(2**63))),
    )
    return noisy, w_star


def run_relu(unit):
    samples, w_star = unit
    return _timed_fit(lambda s: relu.ellipsoid_recover_relu(s, RELU_CONFIG), samples, w_star)


# --- mixture_sweep -------------------------------------------------------------
# The reference sweep through the public harness, split into calls of
# SWEEP_TRIALS trials per eta with seeds of their own, so that the per-call
# calibration in worker.py keeps up with the machine. The harness generates
# its own data from the seed it is given, and that cost is part of the call.

class EscapedError(RadregError):
    """Carries an exception the harness does not catch, so the sweep goes on."""


def make_sweep(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _recording(name, fit, records):
    def recorded(samples, config):
        try:
            snapped = fit(samples, config)
        except (RadregError, np.linalg.LinAlgError) as exc:
            records.append((name, None, type(exc).__name__))
            raise
        except Exception as exc:  # the harness would abort the whole sweep
            records.append((name, None, type(exc).__name__))
            raise EscapedError(repr(exc)) from exc
        records.append((name, snapped, None))
        return snapped
    return recorded


def run_sweep(sweep_seed):
    records = []
    registry = bench.method_registry

    def recording_registry(ridge_coeff=1.0):
        return {name: _recording(name, fit, records)
                for name, fit in registry(ridge_coeff).items()}

    bench.method_registry = recording_registry
    try:
        start = time.perf_counter()
        report = bench.exact_recovery_bench(
            list(SWEEP_METHODS), d=SWEEP_D, n=120, eta_grid=list(SWEEP_ETAS),
            trials=SWEEP_TRIALS, seed=sweep_seed, instance="mixture",
        )
        seconds = time.perf_counter() - start
    finally:
        bench.method_registry = registry
    target = _fractions(default_target(SWEEP_D))
    tokens = [f"{name}:" + (f"!{error}" if error else rational_token(snapped))
              for name, snapped, error in records]
    marks = [f"{name}:" + (f"!{error}" if error else MARKS[snapped.to_fractions() == target])
             for name, snapped, error in records]
    counts = [f"{row.method}@{row.grid_value}:{row.successes}" for row in report.rows]
    successes, method_s = Counter(), Counter()
    for row in report.rows:
        successes[row.method] += row.successes
        method_s[row.method] += row.wall_time_s
    failures = Counter(error for _, _, error in records if error)
    return Outcome(
        seconds, tokens + counts, marks + counts,
        exact=successes["rescaled-l1"],
        baseline_exact=sum(successes[m] for m in SWEEP_METHODS[1:]),
        trials=SWEEP_TRIALS * len(SWEEP_ETAS),
        attempted=len(records),
        failures=failures,
        method_s=method_s,
    )


WORKLOADS = {
    "lad_highdim": Workload("lad_highdim", 18, make_lad_highdim, run_linear),
    "mixture_sweep": Workload("mixture_sweep", 10, make_sweep, run_sweep),
    "relu_ellipsoid": Workload("relu_ellipsoid", 40, make_relu_ellipsoid, run_relu),
    "heavy_recursion": Workload("heavy_recursion", 30, make_heavy_recursion, run_linear),
}
