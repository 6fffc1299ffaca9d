"""Exact ReLU recovery: the certified candidate, then the ellipsoid method.

A parameter is the answer once its snap fits a majority of the points
(x/|x|, y/|x|) and a strict majority of those with w.x > 0. The search
tries an LP-free candidate (least squares on the rows with positive labels,
where the target's ReLU is linear), and only then runs the ellipsoid
method. The l1 loss of a ReLU is
non-convex, so the ellipsoid keeps a region guaranteed to contain the
target. At each center the oracle either certifies a majority fit or
returns a cutting hyperplane: the rescaled subgradient of the positive-side
points, mapped back through the transform. Every cut shrinks the log-volume
by at least 1/(2(d+1)).
Run: python demos/relu_ellipsoid_walkthrough.py
"""

import numpy as np

from radreg import Constant, EllipsoidConfig, FlipNegate, MassartSpec, ellipsoid_recover_relu
from radreg.data import LabeledDataset
from radreg.noise import corrupt_massart

d, m = 3, 2000


def show(report, w_star):
    diagnostics = report.diagnostics
    print(f"certified by: {diagnostics['certified_by']} "
          f"(candidate rounds {diagnostics['irls_rounds']}, "
          f"ellipsoid steps {diagnostics['steps']}, "
          f"oracle calls {diagnostics['oracle_calls']})")
    print("recovered:", report.w_snapped.to_floats(), " target:", w_star)
    print(f"inlier fraction of the snapped parameter: {report.inlier_fraction:.3f}")
    print("exact:", report.w_snapped.to_fractions() == tuple(map(int, w_star)))


# 1. Shift the covariate mean along w* so the target's positive side carries
#    ~98% of the mass: the candidate certifies the target before any cut. A
#    negated label is not positive, so the least-squares fit on the positive
#    labels fits clean rows only, and certifies at round 0.
rng = np.random.default_rng(3)
w_star = np.array([3.0, -4.0, 2.0])
X = rng.standard_normal((m, d)) + 2.0 * w_star / np.linalg.norm(w_star)
clean = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
corrupted, record = corrupt_massart(clean, MassartSpec(0.3, FlipNegate(), 5))
print(f"shifted: {m} samples in R^{d}, {record.mask.sum()} labels corrupted at eta=0.3")
show(ellipsoid_recover_relu(corrupted, EllipsoidConfig(initial_radius=10.0,
                                                       max_denominator=16)), w_star)

# 2. Centered covariates with 40% of the labels set to 1: about half the
#    labels are clean zeros, and the rewritten ones are more than half of
#    the positive labels, so the candidate refuses after all its rounds and
#    the ellipsoid cuts its way to the target. (w = 0 fits about half the
#    points here too, but it has no point with w.x > 0 to fit a majority
#    of, so the first center is never the answer, and it is not checked.)
rng = np.random.default_rng(7)
w_star = rng.integers(-5, 6, size=d).astype(float)
X = rng.standard_normal((m, d))
corrupted, record = corrupt_massart(LabeledDataset(X, np.maximum(X @ w_star, 0.0)),
                                    MassartSpec(0.4, Constant(1.0), 7))
print(f"\ncentered: {m} samples in R^{d}, {record.mask.sum()} labels set to 1 at eta=0.4")
config = EllipsoidConfig(initial_radius=30.0, max_denominator=16)
report = ellipsoid_recover_relu(corrupted, config)
show(report, w_star)

vols = np.array(report.diagnostics["volume_logs"])
decreases = -np.diff(vols)
print(f"log-volume: {vols[0]:.2f} -> {vols[-1]:.2f} over {decreases.size} cuts")
print(f"per-cut decrease: min {decreases.min():.4f}, mean {decreases.mean():.4f} "
      f"(guarantee: {1 / (2 * (d + 1)):.4f})")
print("first cuts (log-volume after each):")
for i, v in enumerate(vols[1:9], start=1):
    print(f"  cut {i:2d}: {v:8.3f}")
