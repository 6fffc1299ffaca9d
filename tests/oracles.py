"""Test oracles: brute-force l0 fitting, the structural-condition check, the
exact existence test for radial-isotropic transforms, and the direct forms
of the isotropy layer's shortcuts.
``min_isotropy_eig`` is the isotropy check itself: lambda_min of the
normalized second moment (``second_moment``) of unit rows.

The first three enumerate (sample subsets, directions on a grid, or point
subsets), so they only run at desk scale. The tests compare the library's
l1 pipeline and heavy-subspace detector against them. The isotropy oracles
do the work the library avoids: one SVD per heavy-subspace candidate, a
rank SVD on every call, a symmetric polar factor after every fixed-point
step (``sym_polar``), and fixed-point steps where the library takes Newton
steps.
``oracle_transform`` recomputes the transform behind a separation cut,
``gd_step`` and ``gd_subgradient`` read one descent step and the l1
subgradient off the descent's step rule,
``recovery_rate`` reads one rate off a recovery-rate report,
``lad_optimal_by_projections`` is ``l1.lad_optimal`` without its Farkas exit,
``ellipsoid_only`` makes ``ellipsoid_recover_relu`` skip its candidate, and
``cut_along`` makes its every oracle call cut with one fixed normal.
"""

import itertools
import math

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from radreg import relu
from radreg.errors import ContractViolation, RadregError
from radreg.isotropy import (
    ANGULAR_TOL,
    DETECT_EVERY,
    MEMBER_RTOL,
    HeavySubspace,
    RadialTransform,
    _detect_heavy,
    _unit_rows,
    _verify_candidate,
    certifying_gamma,
    radial_isotropize,
)
from radreg.l1 import CERTIFY_ROUNDS, DUAL_FEAS_TOL, exact_fit_mask
from radreg.linalg import matrix_rank, span_basis
from radreg.relu import positive_side_mask


class Degenerate(RadregError):
    """Brute-force enumeration found no invertible interpolation subset."""


def _relu(t):
    return np.maximum(t, 0.0)


def _predict(X, w, model):
    z = X @ w
    return z if model == "linear" else _relu(z)


def l0_fit_bruteforce(samples, model="linear"):
    """Parameter fitting the most samples exactly, by subset enumeration.

    Every d-subset of samples is interpolated exactly (for the relu model the
    right-hand side is tried with both signs, so corrupted-to-negated subsets
    also generate candidates). Ties break toward the lexicographically
    smallest parameter vector. Desk scale: the cost is C(m, d) solves.
    """
    if model not in ("linear", "relu"):
        raise ContractViolation(f"model must be 'linear' or 'relu', got {model!r}")
    X, y = samples.x, samples.y
    m, d = X.shape
    if m < d:
        raise Degenerate(f"need at least d={d} samples, got {m}")
    signs = (1.0,) if model == "linear" else (1.0, -1.0)
    best_w, best_count = None, -1
    for subset in itertools.combinations(range(m), d):
        idx = list(subset)
        Xs = X[idx]
        for sign in signs:
            try:
                w = np.linalg.solve(Xs, sign * y[idx])
            except np.linalg.LinAlgError:
                continue
            count = int(exact_fit_mask(_predict(X, w, model), y).sum())
            if count > best_count or (
                count == best_count and tuple(w) < tuple(best_w)
            ):
                best_w, best_count = w, count
    if best_w is None:
        raise Degenerate("every sample subset was singular")
    return best_w, best_count


def _direction_grid(d, budget, seed=0):
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        angles = np.linspace(0.0, np.pi, budget, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((budget, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.vstack([dirs, np.eye(d), -np.eye(d)])


def check_structural_condition(samples, w_true, model="linear",
                               direction_budget=360, seed=0):
    """Compare clean vs corrupted perturbation mass over a direction set.

    For each tested unit direction r the margin is

        sum_clean |f((w*+r).x) - f(w*.x)| - sum_corrupted (same),

    where clean means y_i matches f(w*.x_i) within FIT_RTOL. Returns
    (holds, worst_margin): holds is True when every tested margin is
    strictly positive. Grid/sampling checker; a test oracle, not a proof
    for d >= 3.
    """
    X, y = samples.x, samples.y
    m, d = X.shape
    f = (lambda t: t) if model == "linear" else _relu
    clean = exact_fit_mask(_predict(X, w_true, model), y)
    base = f(X @ w_true)
    worst = math.inf
    for r in _direction_grid(d, direction_budget, seed):
        delta = np.abs(f(X @ (w_true + r)) - base)
        margin = float(delta[clean].sum() - delta[~clean].sum())
        if margin < worst:
            worst = margin
    return worst > 0.0, worst


def check_forster_condition(points):
    """Exact existence test by enumerating subspaces spanned by point subsets.

    Returns (satisfiable, witness): satisfiable is True when every
    k-dimensional subspace holds at most a k/d fraction of the points, in
    which case arbitrarily good transforms exist (Hardt & Moitra, COLT
    2013); otherwise witness is a HeavySubspace certifying non-existence,
    the one of least dimension and, among those, of largest excess over
    k/d. The cost is C(n, k) spans per dimension k: desk scale only.
    """
    Xu = _unit_rows(points)
    n, d = Xu.shape
    best = None
    for k in range(1, d):
        for subset in itertools.combinations(range(n), k):
            basis = span_basis(Xu[list(subset)])
            r = basis.size
            if r < k:
                continue  # span already enumerated at its true size
            members = basis.distance(Xu) <= MEMBER_RTOL
            count = int(members.sum())
            if count * d > r * n:
                cand = HeavySubspace(basis, count / n, member_mask=members)
                if best is None or cand.fraction - r / d > best.fraction - best.basis.size / d:
                    best = cand
        if best is not None:
            return False, best
    return True, None


def oracle_transform(samples, w0, start=None):
    """The transform behind ``sep_oracle``'s cut at w0, recomputed.

    Returns (T, mask): the matrix T of the cut g = T^{-1} r and the
    positive-side mask, or None when those points hold a heavy subspace (the
    oracle then recurses). Cold, T is the isotropy transform A of the
    positive-side points; from a warm ``start`` S it is A S, where A is the
    transform of the images S x, unless those hold a heavy subspace.
    """
    X = samples.x
    mask = positive_side_mask(np.linalg.norm(X, axis=1), w0, X @ w0)
    XS = X[mask]
    gamma = certifying_gamma(*XS.shape)
    if start is not None:
        warm = radial_isotropize(XS @ start.T, gamma)
        if isinstance(warm, RadialTransform):
            return warm.matrix @ start, mask
    result = radial_isotropize(XS, gamma)
    if not isinstance(result, RadialTransform):
        return None
    return result.matrix, mask


def detect_heavy_per_candidate(Xu, A, M):
    """The heavy-subspace detector with one SVD per candidate.

    Every top-k eigenspace of M, mapped back through A, gets its own
    orthonormal basis from ``span_basis``; the points within ANGULAR_TOL of
    it are verified, the first heavy span found wins. Returns it (or None)
    and whether a candidate before it verified exactly k/d of the points.
    """
    n, d = Xu.shape
    _, evecs = np.linalg.eigh(M)
    crawl = False
    for k in range(1, d):
        back = np.linalg.solve(A, evecs[:, d - k:])
        try:
            cand = span_basis(back.T)
        except ContractViolation:
            continue
        loose = cand.distance(Xu) <= ANGULAR_TOL
        if loose.any():
            found, exact = _verify_candidate(Xu, loose)
            if found is not None:
                return found, crawl
            crawl = crawl or exact
    return None, crawl


def second_moment(points):
    """Normalized second moment (d/n) sum of unit-row outer products."""
    U = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = U.shape
    return (d / n) * (U.T @ U)


def min_isotropy_eig(points):
    """Smallest eigenvalue of the normalized second moment of unit rows: the
    quantity a gamma-approximate radial-isotropic set keeps at 1 - gamma or more."""
    return float(np.linalg.eigvalsh(second_moment(points))[0])


def rank_deficient_span(Xu):
    """The eager rank check: the span of unit rows that do not span R^d, as a
    HeavySubspace with fraction 1.0, or None when they do."""
    if matrix_rank(Xu) >= Xu.shape[1]:
        return None
    basis = span_basis(Xu)
    return HeavySubspace(basis, 1.0, member_mask=basis.distance(Xu) <= MEMBER_RTOL)


def sym_polar(A):
    """Symmetric polar factor (A^T A)^{1/2} and the extreme singular values
    of A. With A = Q P, Q orthogonal, A's unit images are Q times P's."""
    _, sig, Vt = np.linalg.svd(A)
    return (Vt.T * sig) @ Vt, sig[0], sig[-1]


def isotropize_polar_every_step(Xu, gamma, max_iters=1000):
    """The isotropy fixed point with A symmetrized after every step.

    Returns (A, iterations, gamma_achieved, log_condition_number) once
    lambda_min reaches 1 - gamma; no heavy-subspace detection, so only for
    sets that have a transform.
    """
    d = Xu.shape[1]
    A, sig_max, sig_min = np.eye(d), 1.0, 1.0
    for it in range(max_iters + 1):
        V = Xu @ A.T
        evals, evecs = np.linalg.eigh(second_moment(V / np.linalg.norm(V, axis=1)[:, None]))
        if evals[0] >= 1.0 - gamma:
            return A, it, 1.0 - evals[0], np.log(sig_max / sig_min)
        A, sig_max, sig_min = sym_polar((evecs / np.sqrt(evals)) @ evecs.T @ A)
    raise AssertionError(f"no transform within {max_iters} iterations")


def isotropize_fixed_point(points, gamma, max_iters=2000):
    """The isotropy loop with the fixed-point step A <- M^{-1/2} A on every
    iteration and the heavy-subspace detector every DETECT_EVERY iterations.

    Returns a RadialTransform or a verified HeavySubspace. Up to its first
    Newton step, ``radial_isotropize`` takes these iterates turned by a left
    rotation (its Cholesky steps), so iteration counts and gaps agree.
    Full-rank sets only: no rank trigger and no degeneracy guard.
    """
    Xu = _unit_rows(points)
    n, d = Xu.shape
    A = np.eye(d)
    for it in range(max_iters + 1):
        V = Xu @ A.T
        U = V / np.linalg.norm(V, axis=1)[:, None]
        evals, evecs = np.linalg.eigh((d / n) * (U.T @ U))
        if evals[0] >= 1.0 - gamma:
            sig = np.linalg.svd(A, compute_uv=False)
            return RadialTransform(A, max(0.0, 1.0 - float(evals[0])), it,
                                   float(np.log(sig[0] / sig[-1])), images=U)
        if it % DETECT_EVERY == DETECT_EVERY - 1:
            found, _ = _detect_heavy(Xu, A, evecs)
            if found is not None:
                return found
        A = (evecs * (1.0 / np.sqrt(np.maximum(evals, 1e-300)))) @ (evecs.T @ A)
    raise AssertionError(f"neither a transform nor a heavy subspace within {max_iters} iterations")


def gd_step(samples, mode, w):
    """The step ``gd_relu_transformed`` takes at w in ``mode``, None for a
    skip: ``relu._gd_step`` on the closed positive side of w."""
    X, y = samples.x, samples.y
    z = X @ w
    mask = positive_side_mask(np.linalg.norm(X, axis=1), w, z)
    return relu._gd_step(mode, X[mask], np.sign(z - y)[mask])


def gd_subgradient(samples, w):
    """The subgradient of ``relu.relu_l1_loss`` at w that the library steps
    along: the 'original' step at w times n/m, for the n of m points on the
    closed positive side of w."""
    X = samples.x
    share = positive_side_mask(np.linalg.norm(X, axis=1), w, X @ w).mean()
    return share * gd_step(samples, "original", w)


def recovery_rate(report, method, grid_value=None):
    """The recovery rate of ``method`` in a ``BenchReport``, at ``grid_value``
    or at its first grid point."""
    for row in report.rows:
        if row.method == method and (grid_value is None or row.grid_value == grid_value):
            return row.recovery_rate
    raise KeyError(method)


def lad_optimal_by_projections(samples, w):
    """(decision, rounds) of ``l1.lad_optimal`` without its Farkas exit: the
    alternating projections run until they prove w, stall at a positive
    distance from the box, or reach CERTIFY_ROUNDS rounds."""
    X, y = samples.x, samples.y
    pred = X @ samples.parameter(w)
    free = exact_fit_mask(pred, y)
    Xz = X[free]
    target = -X[~free].T @ np.sign(y[~free] - pred[~free])
    try:
        gram = cho_factor(Xz.T @ Xz)
    except LinAlgError:
        return False, 0
    inverse = cho_solve(gram, np.eye(Xz.shape[1]))
    u = np.zeros(Xz.shape[0])
    gap = np.inf
    for rounds in range(1, CERTIFY_ROUNDS + 1):
        u += Xz @ (inverse @ (target - Xz.T @ u))
        if np.abs(u).max(initial=0.0) <= 1.0:
            return bool(np.abs(Xz.T @ u - target).max(initial=0.0) <= DUAL_FEAS_TOL), rounds
        clipped = np.clip(u, -1.0, 1.0)
        last, gap = gap, float(np.linalg.norm(u - clipped))
        if DUAL_FEAS_TOL < gap >= last:
            return False, rounds
        u = clipped
    return False, CERTIFY_ROUNDS


def ellipsoid_only(monkeypatch):
    """Make the LP-free candidate of ``ellipsoid_recover_relu`` refuse, so
    that the search runs on the instances it would certify: every answer
    then comes from an ellipsoid center after a cut."""
    monkeypatch.setattr(relu, "_candidate", lambda X, y, rows, max_denominator, buffer: (None, 0))


def cut_along(monkeypatch, normal):
    """Make every oracle call of ``ellipsoid_recover_relu`` refuse its query
    with the cut normal ``normal``."""
    def oracle(samples, w0, **_):
        return relu.SepResult(False, normal=np.asarray(normal, dtype=float),
                              diagnostics={"oracle_calls": 1, "isotropy_iterations": 0})

    monkeypatch.setattr(relu, "sep_oracle", oracle)
