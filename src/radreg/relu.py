"""ReLU parameter recovery: separation oracle, ellipsoid method, and the
transformed subgradient-descent experiment, whose every mode steps by
A^T mean_i(s_i u_i) with the signs s_i read from the raw rows.

The l1 loss of a ReLU model is non-convex, so instead of direct minimization
``ellipsoid_recover_relu`` looks for a parameter whose snap passes the
majority certificate, in this order: an LP-free candidate, least squares
on the rows (x/|x|, y/|x|) with positive labels, where the ReLU of w* is
linear (their fit when it fits every one of them, else the fit on the half
that reweighted least squares ranks best); then the centers of a
central-cut ellipsoid method, each after its cut. The report's
``certified_by`` says which answered.

The certificate, ``_majority_fit``, judges each point on (x/|x|, y/|x|). A
parameter w passes when it fits at least half of all the points and a
strict majority of the nonempty set of points with w.x > 0. Under Massart
noise w* fits about 1 - eta > 1/2 of its own positive side; a w != w* fits a
clean point there only where w.x = w*.x, a null set under the paper's
anti-concentration assumption. w = 0 fits every clean zero label, about
half the points of centered covariates, but has no positive side, so it
never passes: the search does not check its first center, w = 0, and a
target w* = 0 ends in NoRecovery.

The separation oracle accepts a query that passes the certificate;
otherwise it restricts to the closed positive halfspace of the query, puts
those covariates in radial-isotropic position, and returns the
back-transformed rescaled-l1 subgradient direction as a cutting
hyperplane. When the positive-side points concentrate on a subspace V
(fewer than d of them always do) the oracle recurses through the one
subspace-recursion driver, ``linear._split``: first inside V, then (if the
inside check accepts) on the complement, its labels deflated by w0's
component in V. The oracle's ``recursion_trace`` has the entries of
``recover_linear``'s, one per call, with ``accepted`` for a query that
passes the certificate and each level's ``fit_count``.

Consecutive ellipsoid centers see nearly the same positive side, so each
top-level oracle call of ``ellipsoid_recover_relu`` starts the isotropy
fixed point from the previous cut's transform S (the identity when there is
none) and isotropizes the images S x of the positive side. The cut is taken
on the images that certified the gap (``RadialTransform.images``): r is
their mean signed image and g = T^{-1} r for T = A S, A the transform of
the images S x. A parameter w reads T^{-T} w in those images, so g is the
rescaled-l1 subgradient mapped back; and as the certificate is on T's
images, a warm cut is as sound as a cold one. The start is used at depth 0
only. The V and V-perp sub-calls always start cold, and so does a call
whose warm start finds a heavy subspace: it discards that answer and
reruns from the identity, so the recursion is the one a cold call makes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import ContractViolation, HalfspaceEmpty, NoRecovery, RadregError
from .isotropy import RadialTransform, _unit_rows, certifying_gamma, radial_isotropize
from .l1 import (_best_rows, _check_positive_finite, _check_positive_int, _least_squares,
                 _reweighted, _row_scales, exact_fit_mask, snap_to_rational)
from .linalg import _row_norms
from .linear import RecoveryReport, _split

BOUNDARY_RTOL = 1e-12  # half-space test: w.x >= -BOUNDARY_RTOL * |x| * max(1, |w|)
PSD_RTOL = 1e-10  # 'isotropic' GD skips a step when lambda_min <= PSD_RTOL * lambda_max
DELTA_MIN_RTOL = 1e-9  # the ellipsoid stops below radius DELTA_MIN_RTOL * initial_radius


def _relu(t):
    return np.maximum(t, 0.0)


def relu_l1_loss(samples, w):
    """Mean absolute ReLU residual, as a float. Its subgradient is the step
    of ``gd_relu_transformed``'s 'original' mode, scaled by n/m for the n
    positive-side points of m. A w of another length than d raises
    DimensionMismatch."""
    w = samples.parameter(w)
    return float(np.mean(np.abs(_relu(samples.x @ w) - samples.y)))


def positive_side_mask(norms, w, z):
    """Closed halfspace w.x >= 0 with a relative slack band at the boundary,
    given the row norms of X and z = X @ w."""
    slack = BOUNDARY_RTOL * norms * max(1.0, float(np.linalg.norm(w)))
    return (z >= -slack) & (norms > 0.0)


@dataclass
class EllipsoidConfig:
    """Search ball radius and snapping bound.

    ``initial_radius`` must upper-bound |w*| and be positive and finite, else
    ContractViolation. The step budget is the steps that shrink the ball to
    DELTA_MIN_RTOL * initial_radius, a safety net: the operative stop is the
    majority-fit check.
    ``max_denominator`` encodes the caller's bit-complexity knowledge of the
    target: snapping resolves exactly once the center is within
    1/(2*max_denominator^2) of it. The oracle's gap is ``certifying_gamma``.
    """

    initial_radius: float
    max_denominator: int = 10**6

    def __post_init__(self):
        _check_positive_finite(self.initial_radius, "initial_radius")
        _check_positive_finite(DELTA_MIN_RTOL * self.initial_radius,
                               "initial_radius * DELTA_MIN_RTOL")
        self.max_denominator = _check_positive_int(self.max_denominator, "max_denominator")


@dataclass
class SepResult:
    """Either acceptance or a separating hyperplane through the query.

    For a hyperplane, ``normal`` g satisfies g.(w0 - w) > 0 for every w in a
    ball around the target, so the cut through the query keeps
    {w : g.w <= g.w0}. ``transform`` is the matrix T of a cut made in
    radial-isotropic position (g = T^{-1} r), None for acceptance and for a
    cut lifted from a subspace. ``diagnostics`` hold the ``recursion_trace``
    of the call, sub-calls included; ``oracle_calls``, its length; and
    ``isotropy_iterations``, the sum over its ``isotropy`` entries.
    """

    accepted: bool
    normal: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    transform: np.ndarray | None = None


def _majority_fit(z, rows):
    """(fit mask, certified) for z = X @ w and rows = ``l1._row_scales(X, y)``:
    where ReLU(z) fits y on (x/|x|, y/|x|), and whether w passes the majority
    certificate of the module docstring."""
    _, scales, y_scaled = rows
    fit_mask = exact_fit_mask(_relu(z) / scales, y_scaled)
    positive = z > 0.0
    certified = (2 * int(fit_mask.sum()) >= len(z)
                 and 0 < int(positive.sum()) < 2 * int((fit_mask * positive).sum()))
    return fit_mask, certified


def _certify(X, w, rows, max_denominator):
    """(w, snapped, fit mask) for the first snap of w that ``_majority_fit``
    certifies, else None. Coarse denominators go first (1, 10, 100, ... below
    max_denominator, then max_denominator): a simpler rational reaches the
    certificate from a farther w, and the certificate itself is what makes
    any candidate trustworthy."""
    ladder = [10**k for k in range(math.ceil(math.log10(max_denominator)))]
    for denominator in ladder + [max_denominator]:
        snapped = snap_to_rational(w, denominator)
        fit_mask, certified = _majority_fit(X @ snapped.to_floats(), rows)
        if certified:
            return w, snapped, fit_mask
    return None


def _candidate(X, y, rows, max_denominator, buffer):
    """The LP-free try of ``ellipsoid_recover_relu``: (certified, rounds).

    It fits the k rows with y > 0 on (x/|x|, y/|x|): on w*'s positive side a ReLU is linear, and a
    row with a positive label lies there unless the adversary wrote it. Their least-squares fit
    goes to ``_certify`` when it fits every one of them; after every second round of reweighted
    least squares, so does the least-squares fit on the floor(k/2) rows it ranks best. ``_certify``
    judges each w on all m rows. ``certified`` is its first answer, or None once the rounds run
    out or the rows, weighted or chosen, do not span; ``rounds`` counts the rounds run, 0 when the
    start certified. No ball bounds the try. ``buffer``, of 2m rows, takes the k rows, then every
    weighted copy of them, the half fit's rows (``np.take`` mode "raise" would copy them) and their
    weighted copy: with more arrays that large per fit, glibc returned the heap top to the system
    after some fits but not others, and the next fit page-faulted it back in.
    """
    _, scales, y_scaled = rows
    positive = y_scaled > 0.0
    k = int(np.count_nonzero(positive))
    Xp = np.compress(positive, X, axis=0, out=buffer[:k])
    yp, sp = y[positive], scales[positive]
    half = k // 2
    rounds = 0
    try:
        for rounds, w in _reweighted(Xp, yp, sp, buffer[k:2 * k]):
            if rounds and rounds % 2 == 0:  # the least-squares fit on the best-ranked half
                best = _best_rows(Xp, yp, w, half, sp)
                Xb = np.take(Xp, best, axis=0, out=buffer[k + half:k + 2 * half], mode="clip")
                w = _least_squares(Xb, yp[best], 1.0 / sp[best]**2, buffer[k:k + half])
            elif rounds or not exact_fit_mask(Xp @ w / sp, y_scaled[positive]).all():
                continue
            certified = _certify(X, w, rows, max_denominator)
            if certified is not None:
                return certified, rounds
    except np.linalg.LinAlgError:
        pass
    return None, rounds


def _answer(accepted, trace, normal=None, transform=None):
    """The SepResult of one oracle call from its ``recursion_trace``."""
    return SepResult(accepted, normal, {
        "oracle_calls": len(trace),
        "isotropy_iterations": sum(e["isotropy"]["iterations_used"] for e in trace
                                   if "isotropy" in e),
        "recursion_trace": trace,
    }, transform)


def sep_oracle(samples, w0, _depth=0, _start=None, _rows=None, _branch="root"):
    """Separation oracle for the ReLU l1 landscape at query w0.

    Accepts when w0 passes the majority certificate (``_majority_fit``) on
    the samples. Otherwise cuts using the rescaled subgradient of the
    positive-side points; on subspace concentration, recurses as described
    in the module docstring. Raises DimensionMismatch when w0 is not of
    length d, HalfspaceEmpty when no sample lies on the closed positive side
    (the halfspace-mass assumption is violated), and NoRecovery when the
    mean signed image of the positive side is zero. ``_start`` is the
    previous cut's transform (the warm start of the module docstring) and
    ``_rows`` is ``l1._row_scales(samples.x, samples.y)``, which
    ``ellipsoid_recover_relu`` takes once per fit; it passes both at depth 0.
    ``_depth`` and ``_branch`` place a sub-call in the recursion trace.
    """
    X, y = samples.x, samples.y
    w0 = samples.parameter(w0, "w0")
    z = X @ w0
    rows = _row_scales(X, y) if _rows is None else _rows
    fit_mask, certified = _majority_fit(z, rows)
    mask = positive_side_mask(rows[0], w0, z)
    n_S = int(mask.sum())
    entry = {"branch": _branch, "depth": _depth, "dim": samples.d, "n_points": n_S,
             "fit_count": int(fit_mask.sum())}
    if certified:
        return _answer(True, [{**entry, "outcome": "accepted"}])
    if not n_S:
        raise HalfspaceEmpty(
            f"no sample on the closed positive side of the query at depth {_depth}"
        )
    XS, yS = X[mask], y[mask]
    gamma = certifying_gamma(n_S, samples.d)  # recurse iff a heavy subspace exists
    result = radial_isotropize(XS if _start is None else XS @ _start.T, gamma)
    if _start is not None and not isinstance(result, RadialTransform):
        # a heavy subspace: rerun cold, so the recursion is the one a cold call makes
        _start = None
        result = radial_isotropize(XS, gamma)
    if isinstance(result, RadialTransform):
        T = result.matrix if _start is None else result.matrix @ _start
        sgn = np.sign(z[mask] - yS)
        r = (sgn @ result.images) / n_S
        if not r.any():  # T is invertible, so g = T^{-1} r would be zero too
            raise NoRecovery(
                f"the mean signed image of the positive side is zero at depth {_depth}, "
                "so the oracle has no cut although the majority check failed"
            )
        return _answer(False, [{**entry, "outcome": "transform", "isotropy": result.to_json()}],
                       np.linalg.solve(T, r), T)

    heavy = result
    trace = [{**entry, "outcome": "heavy-subspace",
              "heavy_dim": heavy.basis.size, "heavy_fraction": heavy.fraction}]

    def descend(X_sub, y_sub, basis, suffix):
        # an accepting sub-call answers with its query, the coordinates of w0 in its basis
        query = basis.T @ w0
        sub = sep_oracle(LabeledDataset(X_sub, y_sub), query, _depth + 1,
                         _branch=_branch + suffix)
        trace.extend(sub.diagnostics["recursion_trace"])
        return (query, False) if sub.accepted else (sub.normal, True)

    normal, cut = _split(heavy, XS, yS, descend)
    return _answer(not cut, trace, normal if cut else None)


def _stopped(center, radius, steps):
    """JSON-safe diagnostics of a stop: where the search stood."""
    return {"center": center.tolist(), "radius": float(radius), "steps": steps}


def ellipsoid_cut(center, shape, normal):
    """Central cut of the ellipsoid {w : (w - center)^T shape^{-1} (w - center) <= 1}
    keeping {w : normal . w <= normal . center}: the new (center, shape).
    NoRecovery when the normal has no positive norm in the shape."""
    d = center.shape[0]
    Pg = shape @ normal
    denom = float(normal @ Pg)
    if not denom > 0.0:
        raise NoRecovery("cut direction has non-positive ellipsoid norm")
    b = Pg / math.sqrt(denom)
    if d == 1:
        return center - b / 2, shape / 4.0
    P_new = (d * d / (d * d - 1.0)) * (shape - (2.0 / (d + 1)) * np.outer(b, b))
    return center - b / (d + 1), 0.5 * (P_new + P_new.T)


def ellipsoid_recover_relu(samples, config):
    """Exact ReLU parameter recovery: an LP-free candidate, then the
    ellipsoid method.

    A parameter is kept when one of its snaps passes the majority-fit
    certificate on (x/|x|, y/|x|). Tried in order: ``_candidate``, then each
    ellipsoid step's center before that step consults the oracle, which
    starts from the previous cut's transform (module docstring); the first
    center, w = 0, cannot pass. The budget counts ellipsoid steps only.

    The report's diagnostics hold ``certified_by`` (``"candidate"``, or
    ``"ellipsoid"`` for a center), ``irls_rounds`` (the candidate's reweighted rounds: 0 with
    ``"candidate"`` means its least-squares start certified), ``steps``,
    ``final_radius``, ``oracle_calls``, ``isotropy_iterations`` and ``volume_logs``, the
    log-volume 0.5 * logdet(shape) before the first cut and after each. The candidate's path
    makes no step: its counts are 0, its radius the initial one, and its ``volume_logs`` hold
    the initial volume alone.
    Raises NoRecovery when steps or the ellipsoid radius run out, when the
    oracle accepts or has no cut, or when the shape stops being positive
    definite; its JSON-safe ``diagnostics`` hold the final ``center`` (a
    list), ``radius`` and ``steps``, as do those of any typed error from within a step.
    """
    X, y = samples.x, samples.y
    d = samples.d
    buffer = np.empty((2 * X.shape[0], d))  # see _candidate
    rows = _row_scales(X, y)
    radius = config.initial_radius
    center, shape = np.zeros(d), radius ** 2 * np.eye(d)
    max_steps = int(math.ceil(2.0 * (d + 1) * d * -math.log(DELTA_MIN_RTOL))) + 100
    volumes = [d * math.log(radius)]
    work = {"oracle_calls": 0, "isotropy_iterations": 0}
    certified_by = "candidate"
    certified, rounds = _candidate(X, y, rows, config.max_denominator, buffer)
    start = None  # the previous cut's transform
    for step in range(max_steps):
        if step > 0:  # the first center, w = 0, has no positive side to certify
            certified_by = "ellipsoid"
            certified = _certify(X, center, rows, config.max_denominator)
        if certified is not None:
            w_hat, snapped, fit_mask = certified
            return RecoveryReport(
                w_hat=w_hat.copy(),
                w_snapped=snapped,
                inlier_fraction=float(fit_mask.mean()),
                recursion_trace=[],
                majority_certified=True,
                model="relu",
                diagnostics={"certified_by": certified_by, "irls_rounds": rounds,
                             "steps": step, "final_radius": radius, **work,
                             "volume_logs": volumes},
            )
        try:
            result = sep_oracle(samples, center, _start=start, _rows=rows)
            for key in work:
                work[key] += result.diagnostics[key]
            if result.accepted:
                raise NoRecovery(
                    "oracle accepted the center but its snapped value failed the "
                    "majority certificate; max_denominator may not match the "
                    "target's bit complexity",
                    {"oracle": result.diagnostics},
                )
            center, shape = ellipsoid_cut(center, shape, result.normal)
        except RadregError as exc:  # a stop within the step: where it stood
            exc.diagnostics = {**_stopped(center, radius, step), **exc.diagnostics}
            raise
        start = result.transform
        # one spectrum per step gives the definiteness check, the volume and the radius
        evals = np.linalg.eigvalsh(shape)
        if not evals[0] > 0.0:
            raise NoRecovery(
                f"ellipsoid shape lost positive definiteness (smallest "
                f"eigenvalue {evals[0]:.3e})",
                _stopped(center, math.sqrt(max(evals[-1], 0.0)), step + 1),
            )
        volumes.append(0.5 * float(np.log(evals).sum()))
        radius = math.sqrt(evals[-1])
        if radius < DELTA_MIN_RTOL * config.initial_radius:
            raise NoRecovery(
                f"ellipsoid radius {radius:.3e} fell below DELTA_MIN_RTOL * initial_radius "
                f"without a certified parameter",
                _stopped(center, radius, step + 1),
            )
    raise NoRecovery(f"no certified parameter within {max_steps} steps",
                     _stopped(center, radius, max_steps))


# --- transformed subgradient descent -----------------------------------------

GD_MODES = ("original", "normalized", "isotropic", "radial-isotropic")


@dataclass
class GdStep:
    iteration: int
    w: np.ndarray
    distance: float
    loss: float
    skipped: bool = False


def _gd_step(mode, Xp, s):
    """A^T mean_i(s_i u_i) on the positive side Xp (see gd_relu_transformed),
    or None when the mode's transform does not exist."""
    n = len(s)
    if mode == "original":
        return s @ Xp / n
    if mode == "normalized":
        return s @ _unit_rows(Xp) / n
    if mode == "isotropic":
        # every whitening A of M = Xp^T Xp / n has A^T A = M^{-1}
        evals, evecs = np.linalg.eigh(Xp.T @ Xp / n)
        if evals[0] <= PSD_RTOL * evals[-1]:  # also holds for lambda_min <= 0
            return None  # the positive side does not span
        return evecs @ (((s @ Xp) @ evecs) / evals) / n
    iso = radial_isotropize(Xp)
    if not isinstance(iso, RadialTransform):
        return None  # positive side concentrated on a subspace
    return iso.matrix.T @ (s @ iso.images) / n


def gd_relu_transformed(samples, mode, alpha=None, iters=100, w_star=None):
    """Constant-step subgradient descent on the ReLU l1 loss from w = 0, with
    the data transform recomputed from the positive-side points at every
    iteration.

    The update is w <- w - alpha * A^T mean_i(s_i u_i) on the positive
    side, for the images u_i = x_i ('original'), x_i/|x_i| ('normalized'),
    A x_i with A a second-moment whitening ('isotropic') or the certified
    A x_i/|A x_i| ('radial-isotropic'). It is the l1 subgradient at A^{-T} w
    on the images, mapped back by A^T (the oracle instead cuts with
    T^{-1} r); each image's residual is the raw w.x_i - y_i over a positive
    scale, so s_i is the raw sign.
    ``w_star`` must have length d, else DimensionMismatch.

    ``alpha`` defaults to 1 for transformed modes and 1/mean(|x|^2) for
    'original' (keeping raw-point step magnitudes comparable to unit-norm
    ones); a given ``alpha`` must be positive and finite, and so must the
    default of 'original', else ContractViolation. Returns the trajectory as
    a list of GdStep records; iterations with an empty positive side or a
    degenerate transform keep w and are flagged ``skipped``.
    """
    if mode not in GD_MODES:
        raise ContractViolation(f"mode must be one of {GD_MODES}, got {mode!r}")
    iters = _check_positive_int(iters, "iters")
    X, y = samples.x, samples.y
    norms = _row_norms(X)
    if alpha is None:
        mean_sq = float(np.mean(norms ** 2))
        alpha = 1.0 if mode != "original" else 1.0 / mean_sq if mean_sq > 0.0 else math.inf
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ContractViolation(f"alpha must be positive and finite, got {alpha} "
                                "(mode 'original' defaults it to 1/mean|x|^2)")
    w = np.zeros(samples.d)
    if w_star is not None:
        w_star = samples.parameter(w_star, "w_star")

    trajectory = []
    for it in range(iters):
        z = X @ w
        mask = positive_side_mask(norms, w, z)
        step = _gd_step(mode, X[mask], np.sign(z[mask] - y[mask])) if mask.any() else None
        if step is not None:
            w = w - alpha * step
        dist = math.nan if w_star is None else float(np.linalg.norm(w - w_star))
        trajectory.append(GdStep(it, w.copy(), dist, relu_l1_loss(samples, w), step is None))
    return trajectory
