"""Subgradient descent on the ReLU l1 loss under four data transforms.

Per iteration the transform A is recomputed from the points on the
positive side of the current iterate, and the update is
w <- w - alpha * A^T mean_i(s_i u_i): the l1 subgradient at A^{-T} w on the
images u_i, mapped back, with s_i the sign of the raw residual w.x_i - y_i.
'original' is plain subgradient descent, 'normalized' rescales each point to
the sphere, 'isotropic' whitens the second moment (its step is M^{-1} times
the mean signed point, for the second moment M), 'radial-isotropic' runs the
full alternating-normalization transform.
Run: python demos/gd_transform_comparison.py [out.csv]
"""

import csv
import sys

from radreg import MassartSpec, gated_flip, gd_relu_transformed
from radreg.bench import SyntheticSpec, make_synthetic_dataset
from radreg.noise import corrupt_massart

d, n, eta, iters = 10, 240, 0.4, 200
spec = SyntheticSpec(d=d, n=n, seed=1)
clean = make_synthetic_dataset(spec, model="relu")
corrupted, _ = corrupt_massart(clean, MassartSpec(eta, gated_flip(d / 2), 2))
print(f"mixture data: d={d}, n={n}, eta={eta}, target |w*|={sum(spec.w_star**2)**0.5:.2f}")

trajectories = {}
for mode in ("original", "normalized", "isotropic", "radial-isotropic"):
    trajectories[mode] = gd_relu_transformed(
        corrupted, mode, iters=iters, w_star=spec.w_star
    )

print(f"\ndistance to target over {iters} iterations:")
print(f"{'iter':>6s}" + "".join(f"{m:>18s}" for m in trajectories))
for it in (0, 9, 49, 99, 199):
    row = f"{it + 1:>6d}"
    for mode, traj in trajectories.items():
        row += f"{traj[it].distance:>18.4f}"
    print(row)

best = min(trajectories, key=lambda m: trajectories[m][-1].distance)
print(f"\nclosest final iterate: {best}")

if len(sys.argv) > 1:
    with open(sys.argv[1], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "iter", "loss", "distance"])
        for mode, traj in trajectories.items():
            for step in traj:
                writer.writerow([mode, step.iteration, step.loss, step.distance])
    print(f"trajectories written to {sys.argv[1]}")
