"""Recovery when the data concentrates on a subspace.

No radial-isotropic transform exists once a k-dimensional subspace holds
more than k/d of the points. The recursive algorithm detects the subspace,
recovers the target's projection inside it, subtracts that component from
the labels of the remaining points, and recurses on the orthogonal
complement. Run: python demos/heavy_subspace_recursion.py
"""

import numpy as np

from radreg import (
    FlipNegate,
    MassartSpec,
    find_heavy_subspace,
    recover_linear,
)
from radreg.data import LabeledDataset
from radreg.noise import corrupt_massart

rng = np.random.default_rng(42)
m, on_line = 300, 180  # 60% of the points on span(e1) in R^2
w_star = np.array([3.0, -2.0])

X = rng.standard_normal((m, 2))
X[:on_line, 1] = 0.0
X = X[rng.permutation(m)]
clean = LabeledDataset(X, X @ w_star)
corrupted, record = corrupt_massart(clean, MassartSpec(0.2, FlipNegate(), 7))
print(f"{on_line}/{m} points on a line, {record.mask.sum()} labels flipped")

heavy = find_heavy_subspace(corrupted.x)
print(f"\ndetected heavy subspace: dim {heavy.dim}, "
      f"fraction {heavy.fraction:.3f} > {heavy.dim}/{heavy.ambient_dim}")
print("basis direction:", np.round(heavy.basis.vectors.ravel(), 9))

report = recover_linear(corrupted)
print("\nrecursion trace:")
for entry in report.recursion_trace:
    iso = entry.get("isotropy")
    extra = (f", gamma={iso['gamma_achieved']:.1e}, LAD by {entry['lad']}" if iso
             else f", heavy dim {entry['heavy_dim']}"
                  f" fraction {entry['heavy_fraction']:.2f}")
    print(f"  depth {entry['depth']}  {entry['branch']:<12s} dim {entry['dim']}"
          f"  {entry['n_points']} pts  -> {entry['outcome']}{extra}")

print("\nrecovered:", report.w_snapped.to_floats(), " target:", w_star)
print("exact:", report.w_snapped.to_fractions() == (3, -2))
