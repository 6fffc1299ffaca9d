"""Recovery when the data concentrates on a subspace.

No radial-isotropic transform exists once a k-dimensional subspace holds
more than k/d of the points. The recursive algorithm detects the subspace,
recovers the target's projection inside it, subtracts that component from
the labels of the remaining points, and recurses on the orthogonal
complement. The ReLU separation oracle splits a heavy positive side by the
same driver and reports its recursion in the same trace schema, where
``accepted`` marks a sub-call whose query passes the majority certificate.
Run: python demos/heavy_subspace_recursion.py
"""

import numpy as np

from radreg import FlipNegate, MassartSpec, radial_isotropize, recover_linear
from radreg.data import LabeledDataset
from radreg.isotropy import certifying_gamma
from radreg.noise import corrupt_massart
from radreg.relu import sep_oracle

rng = np.random.default_rng(42)
m, on_line = 300, 180  # 60% of the points on span(e1) in R^2
w_star = np.array([3.0, -2.0])

X = rng.standard_normal((m, 2))
X[:on_line, 1] = 0.0
X = X[rng.permutation(m)]
clean = LabeledDataset(X, X @ w_star)
corrupted, record = corrupt_massart(clean, MassartSpec(0.2, FlipNegate(), 7))
print(f"{on_line}/{m} points on a line, {record.mask.sum()} labels flipped")

# at the gap of a recursion level, a HeavySubspace comes back exactly when one exists
heavy = radial_isotropize(corrupted.x, certifying_gamma(m, 2))
print(f"\ndetected heavy subspace: dim {heavy.basis.size}, "
      f"fraction {heavy.fraction:.3f} > {heavy.basis.size}/{heavy.basis.ambient_dim}")
print("basis direction:", np.round(heavy.basis.vectors.ravel(), 9))



def print_trace(trace):
    for entry in trace:
        iso = entry.get("isotropy")
        if iso:
            extra = f", gamma={iso['gamma_achieved']:.1e}"
            extra += f", LAD by {entry['lad']}" if "lad" in entry else ""
        elif "heavy_dim" in entry:
            extra = f", heavy dim {entry['heavy_dim']} fraction {entry['heavy_fraction']:.2f}"
        else:
            extra = f", fits {entry['fit_count']}"
        print(f"  depth {entry['depth']}  {entry['branch']:<12s} dim {entry['dim']}"
              f"  {entry['n_points']} pts  -> {entry['outcome']}{extra}")


report = recover_linear(corrupted)
print("\nrecursion trace:")
print_trace(report.recursion_trace)

print("\nrecovered:", report.w_snapped.to_floats(), " target:", w_star)
print("exact:", report.w_snapped.to_fractions() == (3, -2))

# ReLU labels of the same points, flipped as above. w0 = (3, 0) agrees with the
# target on the line, which holds 60% of w0's positive side x1 >= 0
relu_corrupted, _ = corrupt_massart(LabeledDataset(X, np.maximum(X @ w_star, 0.0)),
                                    MassartSpec(0.2, FlipNegate(), 7))
w0 = np.array([3.0, 0.0])
result = sep_oracle(relu_corrupted, w0)
print(f"\nseparation oracle at w0 = {w0}: accepted {result.accepted}, "
      f"{result.diagnostics['oracle_calls']} calls; its recursion trace:")
print_trace(result.diagnostics["recursion_trace"])
if not result.accepted:
    print("cut normal:", np.round(result.normal, 6),
          " separates w0 from the target:", bool(result.normal @ (w0 - w_star) > 0))
