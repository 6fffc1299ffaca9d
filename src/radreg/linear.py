"""Exact recovery of linear parameters under Massart label corruption.

Each recursion level drops the zero covariates and asks
``radial_isotropize`` for a transform of the rest at ``certifying_gamma``,
a gap no set with a heavy subspace passes. When one exists, the level
minimizes the rescaled least-absolute-deviations loss and maps the
minimizer w' back as w = A^T w', A the transform. The minimizer comes from
``l1.lad_fit``: with n >= 6d points a least-squares fit on the best-ranked
half of the rescaled rows, then at every size the vertex through the d
best-ranked rows, each kept only when a dual point proves it a minimizer on
all n rows, and otherwise the LAD LP on all n rows. The leaf's trace entry
names the try that gave it (``lad``: ``half``, ``vertex`` or ``lp``). When
the points concentrate on a subspace V instead, ``_split`` recovers the
projection of the target onto V from the points inside it, subtracts that
component from the labels of the remaining points, and recurses on the
orthogonal complement. ``_split`` is the one subspace-recursion driver: the
ReLU separation oracle splits its heavy levels with it too. A subspace
holding every point leaves the complement of the target unidentifiable.

The recovered parameter is snapped once to bounded-denominator rationals;
reports carry the snapped vector, the fraction of samples it fits exactly
(each judged on (x/|x|, y/|x|)) and a per-level recursion trace.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import InsufficientPoints, NonIdentifiable
from .isotropy import RadialTransform, certifying_gamma, radial_isotropize
from .l1 import (RationalVector, _check_positive_int, _row_scales, exact_fit_mask, lad_fit,
                 snap_to_rational)
from .linalg import _row_norms, orthonormal_complement


@dataclass
class RecoveryReport:
    w_hat: np.ndarray
    w_snapped: RationalVector
    inlier_fraction: float
    recursion_trace: list
    majority_certified: bool
    model: str = "linear"
    diagnostics: dict = field(default_factory=dict)

    @property
    def recursion_depth(self):
        return max((entry["depth"] for entry in self.recursion_trace), default=0)

    def to_json(self):
        return {
            "model": self.model,
            "w_hat": [float(v) for v in self.w_hat],
            "w_snapped": self.w_snapped.to_json(),
            "inlier_fraction": self.inlier_fraction,
            "majority_certified": self.majority_certified,
            "recursion_depth": self.recursion_depth,
            "recursion_trace": self.recursion_trace,
            "diagnostics": self.diagnostics,
        }


def _fit_leaf(transform, X, y):
    """``l1.lad_fit`` on the rescaled points, mapped back: (w, its info)."""
    w, info = lad_fit(LabeledDataset(*transform.apply(X, y)))
    return transform.matrix.T @ w, info


def _split(heavy, X, y, descend):
    """One heavy level: (answer, stop), from the points in V, then from those off it.

    ``descend(X_sub, y_sub, basis, suffix)`` solves a sub-level given in the
    coordinates of ``basis`` (B of V, then C of V-perp) and returns (v, stop) in
    them; ``suffix`` (``/V``, ``/Vperp``) extends the branch name. A stop or a V
    holding every point ends the level at u = B v. Otherwise the labels off V are
    deflated by u, and the level answers u + C v_perp, or C v_perp on a stop.
    """
    members = heavy.member_mask
    B = heavy.basis.vectors
    v, stop = descend(X[members] @ B, y[members], B, "/V")
    u = B @ v
    if stop or members.all():
        return u, stop
    rest = ~members
    C = orthonormal_complement(heavy.basis).vectors
    v_perp, stop = descend(X[rest] @ C, y[rest] - X[rest] @ u, C, "/Vperp")
    return (C @ v_perp if stop else u + C @ v_perp), stop


def _recover(X, y, depth, branch, trace):
    """Recover the target's coordinates at one level; appends to ``trace``.

    A transform leaf keeps a candidate only when it minimizes the LAD loss
    on all of the level's points, so the leaf returns what the full LP
    returns whenever that LP has one minimizer. Fitting a majority of the
    points would not be enough: with 65% of the points of R^3 on a plane (no
    heavy subspace, since 65% < 2/3), a w that fits every point of the plane
    fits a majority whatever its third coordinate, which a candidate may
    take from a few corrupted points off the plane.
    """
    d = X.shape[1]
    nonzero = _row_norms(X) > 0.0
    Xnz, ynz = X[nonzero], y[nonzero]
    n = Xnz.shape[0]
    if n < d:
        raise InsufficientPoints(f"{n} nonzero points in dim {d} at recursion level {depth}",
                                 {"level": depth})
    entry = {
        "branch": branch,
        "depth": depth,
        "dim": d,
        "n_points": n,
        "n_zero": int((~nonzero).sum()),
    }
    result = radial_isotropize(Xnz, certifying_gamma(n, d))
    if isinstance(result, RadialTransform):
        w, lad = _fit_leaf(result, Xnz, ynz)
        trace.append({**entry, "outcome": "transform", "isotropy": result.to_json(), **lad})
        return w

    heavy = result
    if heavy.member_mask.all():
        raise NonIdentifiable(f"nonzero covariates span only rank {heavy.basis.size} in dim {d} "
                              f"at recursion level {depth}", {"level": depth})
    trace.append({**entry, "outcome": "heavy-subspace",
                  "heavy_dim": heavy.basis.size, "heavy_fraction": heavy.fraction})

    def descend(X_sub, y_sub, _, suffix):
        return _recover(X_sub, y_sub, depth + 1, branch + suffix, trace), False

    return _split(heavy, Xnz, ynz, descend)[0]


def recover_linear(samples, max_denominator=10**6):
    """Recursive recovery tolerating concentration on subspaces.

    Nonzero covariates must span the ambient space, otherwise the component
    of the target orthogonal to their span is unidentifiable and
    NonIdentifiable is raised; fewer nonzero covariates than dimensions at
    any level raise InsufficientPoints. Zero covariates are excluded from
    the fits but counted in the per-level trace. ``inlier_fraction`` judges
    each point on (x/|x|, y/|x|), see ``l1._row_scales``.

    ``max_denominator`` doubles as the bit-complexity bound on the target:
    snapping is exact once the estimate is within 1/(2*max_denominator^2)
    of it. Unless it is an integer >= 1, ContractViolation is raised before
    any fit.
    """
    max_denominator = _check_positive_int(max_denominator, "max_denominator")
    trace = []
    w_hat = _recover(samples.x, samples.y, 0, "root", trace)
    snapped = snap_to_rational(w_hat, max_denominator)
    _, scales, y_scaled = _row_scales(samples.x, samples.y)
    fits = exact_fit_mask((samples.x @ snapped.to_floats()) / scales, y_scaled)
    frac = float(fits.mean())
    return RecoveryReport(
        w_hat=w_hat,
        w_snapped=snapped,
        inlier_fraction=frac,
        recursion_trace=trace,
        majority_certified=frac >= 0.5,
    )
