"""Real-data-shaped pipeline: corrupt training labels, evaluate on clean test.

The adversary rescales training labels by -100 at rate eta; methods fit the
corrupted training set and are scored by the fraction of a clean held-out
test set predicted within a margin of 2. This is a small stand-in (m=400,
d=40); the full-shape run (3084/1000 x 410) lives in the slow test suite.
Run: python demos/margin_pipeline_standin.py
"""

import numpy as np

from radreg.bench import margin_fraction, method_registry
from radreg.data import LabeledDataset
from radreg.noise import MassartSpec, Scale, corrupt_massart

rng = np.random.default_rng(0)
d, m_train, m_test = 40, 400, 200
w_star = rng.integers(-3, 4, size=d).astype(float)
X_train = rng.standard_normal((m_train, d))
X_test = rng.standard_normal((m_test, d))
train = LabeledDataset(X_train, X_train @ w_star)
test = LabeledDataset(X_test, X_test @ w_star)

registry = method_registry(ridge_coeff=1.0)
print(f"train {m_train} x {d}, test {m_test}; labels scaled by -100 at rate eta\n")
print(f"{'eta':>5s}" + "".join(f"{m:>16s}" for m in registry))
for eta in (0.0, 0.1, 0.2, 0.3, 0.4):
    corrupted, _ = corrupt_massart(train, MassartSpec(eta, Scale(-100.0), seed=7))
    row = f"{eta:>5.2f}"
    for name, fit in registry.items():
        try:
            snapped = fit(corrupted, 10**6)
            frac = margin_fraction(snapped.to_floats(), test, margin=2.0)
        except Exception:
            frac = float("nan")
        row += f"{frac:>16.3f}"
    print(row)

print("\nmargin = fraction of clean test labels within +-2 of the fit's "
      "prediction; the rescaled fit stays at 1.0 while squared-loss "
      "baselines collapse once corruption appears.")
