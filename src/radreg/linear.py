"""Exact recovery of linear parameters under Massart label corruption.

The single-shot path puts the covariates in approximate radial-isotropic
position, solves the rescaled least-absolute-deviations LP, and maps the
minimizer back through the (symmetric) transform. The recursive path handles
point sets that concentrate on a subspace V: recover the projection of the
target onto V from the points inside it, subtract that component from the
labels of the remaining points, and recurse on the orthogonal complement.

Recovered parameters are snapped to bounded-denominator rationals; reports
carry the snapped vector, the fraction of samples it fits exactly, and a
per-level recursion trace.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import (
    HeavySubspaceEncountered,
    InsufficientPoints,
    NonIdentifiable,
    RadregError,
)
from .isotropy import DEFAULT_GAMMA, RadialTransform, certifying_gamma, radial_isotropize
from .l1 import FIT_RTOL, RationalVector, exact_fit_mask, l1_fit_linear, snap_to_rational
from .linalg import matrix_rank, orthonormal_complement


@dataclass
class RecoveryConfig:
    """Knobs shared by the recovery algorithms.

    ``max_denominator`` doubles as the bit-complexity bound on the target:
    snapping is exact once the estimate is within 1/(2*max_denominator^2)
    of the true rational parameter. ``rho_hint`` only informs sample-size
    suggestions, never the algorithms themselves.
    """

    gamma: float = DEFAULT_GAMMA
    fit_tol: float = FIT_RTOL
    max_denominator: int = 10**6
    rho_hint: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")


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


def _predict_linear(X, w):
    return X @ w


def _finish_report(samples, w_hat, trace, config, model="linear", predict=_predict_linear,
                   diagnostics=None):
    snapped = snap_to_rational(w_hat, config.max_denominator)
    ws = snapped.to_floats()
    frac = float(exact_fit_mask(predict(samples.x, ws), samples.y, config.fit_tol).mean())
    return RecoveryReport(
        w_hat=np.asarray(w_hat, dtype=float),
        w_snapped=snapped,
        inlier_fraction=frac,
        recursion_trace=trace,
        majority_certified=frac >= 0.5,
        model=model,
        diagnostics=diagnostics or {},
    )


def _stabilized(X, y, w_raw, config):
    """Prefer the snapped parameter when it fits at least as many samples."""
    snapped = snap_to_rational(w_raw, config.max_denominator).to_floats()
    raw_count = int(exact_fit_mask(X @ w_raw, y, config.fit_tol).sum())
    snap_count = int(exact_fit_mask(X @ snapped, y, config.fit_tol).sum())
    return snapped if snap_count >= raw_count else w_raw


def _fit_on_transform(X, y, transform, config):
    U, yt = transform.apply(X, y)
    fit = l1_fit_linear(LabeledDataset(U, yt), config.fit_tol)
    return transform.matrix @ fit.w


def recover_linear_simple(samples, config=None):
    """Single-shot recovery: isotropize, solve the rescaled LAD LP, map back.

    Requires a full-dimensional radial-isotropic transform to exist; a heavy
    subspace raises HeavySubspaceEncountered, signalling that the recursive
    recover_linear is needed.
    """
    config = config or RecoveryConfig()
    X, y = samples.x, samples.y
    m, d = X.shape
    if m < d:
        raise InsufficientPoints(f"need at least d={d} samples, got {m}")
    result = radial_isotropize(X, config.gamma)
    if not isinstance(result, RadialTransform):
        raise HeavySubspaceEncountered(result)
    w_raw = _fit_on_transform(X, y, result, config)
    w = _stabilized(X, y, w_raw, config)
    trace = [{
        "branch": "root",
        "depth": 0,
        "dim": d,
        "n_points": m,
        "n_zero": 0,
        "outcome": "transform",
        "isotropy": result.to_json(),
    }]
    return _finish_report(samples, w, trace, config)


def _recover(X, y, depth, branch, trace, config):
    d = X.shape[1]
    norms = np.linalg.norm(X, axis=1)
    nonzero = norms > 0.0
    n_zero = int((~nonzero).sum())
    Xnz, ynz = X[nonzero], y[nonzero]
    if Xnz.shape[0] < d:
        raise InsufficientPoints(
            f"{Xnz.shape[0]} nonzero points in dim {d} at recursion level {depth}",
            level=depth,
        )
    rank = matrix_rank(Xnz)
    if rank < d:
        raise NonIdentifiable(
            f"nonzero covariates span only rank {rank} in dim {d} "
            f"at recursion level {depth}",
            level=depth,
        )
    # Branch on heavy-subspace EXISTENCE, not on gamma-approximability: a
    # subspace with fraction f caps lambda_min at d(1-f)/(d-k), which a
    # mild gamma target can clear. Iterating past the certifying gap either
    # proves no heavy subspace exists (and hands back an even better
    # transform than requested) or surfaces a verified one.
    gamma_eff = min(config.gamma, certifying_gamma(Xnz.shape[0], d))
    result = radial_isotropize(Xnz, gamma_eff)
    if isinstance(result, RadialTransform):
        w_raw = _fit_on_transform(Xnz, ynz, result, config)
        w = _stabilized(Xnz, ynz, w_raw, config)
        trace.append({
            "branch": branch,
            "depth": depth,
            "dim": d,
            "n_points": int(Xnz.shape[0]),
            "n_zero": n_zero,
            "outcome": "transform",
            "isotropy": result.to_json(),
        })
        return w

    heavy = result
    members = heavy.member_mask
    trace.append({
        "branch": branch,
        "depth": depth,
        "dim": d,
        "n_points": int(Xnz.shape[0]),
        "n_zero": n_zero,
        "outcome": "heavy-subspace",
        "heavy_dim": heavy.dim,
        "heavy_fraction": heavy.fraction,
    })
    B = heavy.basis.vectors
    w_v_coords = _recover(Xnz[members] @ B, ynz[members],
                          depth + 1, branch + "/V", trace, config)
    w_v = B @ w_v_coords

    comp = orthonormal_complement(heavy.basis)
    C = comp.vectors
    rest = ~members
    # deflate: points off V keep only the orthogonal label component
    y_defl = ynz[rest] - Xnz[rest] @ w_v
    w_p_coords = _recover(Xnz[rest] @ C, y_defl,
                          depth + 1, branch + "/Vperp", trace, config)
    return w_v + C @ w_p_coords


def recover_linear(samples, config=None):
    """Recursive recovery tolerating concentration on subspaces.

    Nonzero covariates must span the ambient space, otherwise the component
    of the target orthogonal to their span is unidentifiable and
    NonIdentifiable is raised. Zero covariates are excluded from the fits but
    counted in the per-level trace.
    """
    config = config or RecoveryConfig()
    trace = []
    w_hat = _recover(samples.x, samples.y, 0, "root", trace, config)
    return _finish_report(samples, w_hat, trace, config)


def recover_with_retries(sampler, recover, retries=3):
    """Rerun recovery on fresh samples until the majority certificate holds.

    ``sampler(attempt)`` must return a fresh LabeledDataset (derive the seed
    from the attempt index); ``recover(samples)`` returns a RecoveryReport.
    Returns (report, attempts_used); the report is the first certified one,
    else the last obtained, else None when every attempt raised.
    """
    last = None
    attempts = 0
    for attempt in range(retries):
        attempts = attempt + 1
        try:
            report = recover(sampler(attempt))
        except RadregError:
            continue
        if report.majority_certified:
            return report, attempts
        last = report
    return last, attempts
