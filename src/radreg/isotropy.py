"""Radial-isotropic transformations and heavy-subspace detection.

A point set on the unit sphere is in gamma-approximate radial-isotropic
position when the normalized second-moment matrix (d/n) sum u_i u_i^T has
smallest eigenvalue at least 1 - gamma; equivalently, the quadratic form in
every unit direction is at least 1 - gamma. ``radial_isotropize`` searches
for an invertible A whose normalized images achieve this via the
alternating normalization fixed point (Artstein-Avidan, Kaplan, Sharir,
*On radial isotropic position: theory and algorithms*, 2020):

    u_i = A x_i / |A x_i|,   M = (d/n) sum u_i u_i^T,   A <- M^{-1/2} A.

The multiplicative update does not keep A symmetric, and nothing asks it
to: any A whose images are in position serves, and a parameter w' of the
images reads w = A^T w' in the original coordinates. So the iterate whose
images certified the gap is returned as it is, with those images.

The step needs only some A' with A'^T A' = A^T M^{-1} A, so it takes the
Cholesky factor M = L L^T and steps A <- L^{-1} A. L^{-1} = Q M^{-1/2}
with Q orthogonal, and A -> M(A)^{-1/2} A commutes with left rotations, so
each iterate is the M^{-1/2} iterate turned by a rotation: the images turn
with it, and the gaps and iteration counts are the same. The certificate
lambda_min(M) >= 1 - gamma is the Cholesky factorization of M - (1 - gamma) I
succeeding; eigenvalues are computed only on that exit. Iterations that
need eigenvectors or a precise lambda_min take an eigh of M instead: the
scheduled detector runs, the Newton steps, and near-singular spectra,
where the rank and degeneracy tests decide (see ``_cholesky_inverse``).

The fixed point converges linearly, and it crawls where only approximate
transforms exist, as when a k-dimensional subspace holds exactly k/d of the
points. So from the scheduled detector run that verifies such a span
(count * d == k * n, in integers), or else from the second run (iteration
2 DETECT_EVERY - 1) once two runs have found no heavy subspace, each
iteration takes a damped Newton step on Barthe's convex potential (Barthe,
*Invent. Math.* 1998) at the current images v_i instead:

    f(delta) = log det S(delta) - (d/n) sum delta_i,
    S(delta) = (d/n) sum e^{delta_i} v_i v_i^T,   A <- S(delta)^{-1/2} A.

At delta = 0 this is the fixed-point step. The gradient is l_i - d/n with
leverages l_i = (d/n) v_i^T M^{-1} v_i, and the Hessian is diag(l) - L∘L
with L = (d/n) V M^{-1} V^T. Since f(delta + t 1) = f(delta), 1 is a null
vector; 1 1^T / n is added to the Hessian to remove it. The system is
solved in min(n, p) dimensions, p = d(d+1)/2: directly when n <= p, else by
Woodbury, because L∘L = F F^T with F_i,(jk) = (d/n) c_jk w_ij w_ik, where
w_i = M^{-1/2} v_i in M's eigenbasis and c is 1 on the diagonal and sqrt(2)
off it. The step backtracks (Armijo) on f. A step that fails (a system
singular to working precision, no descent, no decrease within the
backtracking budget) falls back to the fixed-point step, and so does every
later iteration of the call: on a barely heavy set the images of the
subspace's points collapse and the system stays singular. The switch waits
for the detector because f has no minimizer on a set with a heavy
subspace, and Newton steps there are wasted work: taken from iteration 0,
they made a 1000-point set in R^16 with a heavy plane about 7 times slower
to settle. A verified exactly-k/d span marks the crawl, and the detector
run that verifies it runs anyway, so the mark costs nothing: on 200 of 700
points on 4 of 14 dims the first run verifies the span and the call ends
after 27 iterations, not 52. Without one the switch waits for a second
run, because many sets converge at the fixed point's own pace within a
few dozen iterations. Newton steps would hand those a different certified
transform, and a different transform can make a different LAD vertex
optimal, which changes which noisy instances are recovered exactly. Sets
that converge before the second detector run, and on which no run
verified an exactly-k/d span, follow the fixed point exactly, up to a
left rotation.

No transform exists exactly when some k-dimensional subspace holds strictly
more than a k/d fraction of the points (Hardt & Moitra, COLT 2013). When
the iteration stalls, the detector maps the eigenvectors of M back through
A^{-1}, top first, and takes one QR of them: the first k columns of Q span
the k-th candidate, so a point's distance to every candidate is the norm of
its trailing coordinates. The points near a candidate are snapped onto
their own span and counted; a verified subspace is correct regardless of
how it was found. A stall that verifies none raises IsotropyStalled at
every d: it proves nothing either way.

A rank-deficient set, including any set of fewer than d points, is the
trivial case: its span holds all of it. The rank SVD runs only when the
first iteration's spectrum is near singular, which every rank deficit is.
A full-rank set with such a spectrum takes its first step from a QR of the
points, whose smallest singular value is resolved where M's smallest
eigenvalue, its square, may be lost in rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import ContractViolation, InsufficientPoints, IsotropyStalled
from .linalg import RANK_RTOL, OrthonormalBasis, _row_norms, matrix_rank, span_basis

DEFAULT_GAMMA = 0.5
ANGULAR_TOL = 1e-6      # loose capture radius around a candidate subspace
MEMBER_RTOL = 1e-9      # strict membership: dist(x, V) <= MEMBER_RTOL * |x|
DETECT_EVERY = 25       # run the heavy-subspace detector every this many iters
NEWTON_AFTER = 2 * DETECT_EVERY - 1  # Newton steps from the second detector run on
NEWTON_BACKTRACKS = 20  # step halvings before a Newton step falls back
NEWTON_RTOL = 1e-6      # relative residual above which the Newton system is singular
ARMIJO = 1e-4           # sufficient-decrease fraction of the Newton slope
DEGENERATE_RTOL = 1e-13  # lambda_min at most this times max(lambda_max, 1): the images collapsed
# lambda_min certified above this times d lets a step skip eigh: above both
# cutoffs, by a factor 2 for rounding (see _cholesky_inverse)
CHOLESKY_RTOL = 2 * max(RANK_RTOL, DEGENERATE_RTOL)


@dataclass
class RadialTransform:
    """Invertible A plus convergence diagnostics.

    ``matrix`` is the iterate A whose images certified the gap, and
    ``images`` are those images, u_i = A x_i / |A x_i| with x_i the
    unit-normalized points. ``gamma_achieved`` is 1 - lambda_min of their
    second moment. ``apply`` recomputes the images from the raw points, and
    its gap agrees with the certified one to about eps times the condition
    number of A (about 1e-8 at 1e8). A is not symmetric in general; a
    parameter w' of the images maps back as w = A^T w'.
    ``iterations_used`` counts fixed-point and Newton steps alike;
    ``newton_steps`` counts the Newton steps among them, and
    ``newton_from`` is the iteration of the first one (None without one).
    """

    matrix: np.ndarray
    gamma_achieved: float
    iterations_used: int
    log_condition_number: float
    images: np.ndarray = field(repr=False, compare=False)
    newton_steps: int = 0
    newton_from: int | None = None

    def apply(self, points, labels=None):
        """Map (x, y) to (A x / |A x|, y / |A x|); returns images or a pair."""
        return _unit_rows(np.atleast_2d(np.asarray(points, dtype=float)) @ self.matrix.T, labels)

    def to_json(self):
        return {
            "gamma_achieved": self.gamma_achieved,
            "iterations_used": self.iterations_used,
            "log_condition_number": self.log_condition_number,
            "newton_steps": self.newton_steps,
            "newton_from": self.newton_from,
        }


@dataclass
class HeavySubspace:
    """A subspace holding strictly more than basis.size / d of the (nonzero) points."""

    basis: OrthonormalBasis
    fraction: float
    member_mask: np.ndarray = field(repr=False)


def _unit_rows(points, labels=None):
    """x / |x|, or the pair (x / |x|, y / |x|) when labels are given;
    ContractViolation when some |x| is not finite or is zero."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    norms = _row_norms(X)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise ContractViolation(f"input point {int(np.argmax(bad))} has a non-finite norm")
    if np.any(norms == 0.0):
        raise ContractViolation("zero vector among input points")
    if labels is None:
        return X / norms[:, None]
    return X / norms[:, None], np.asarray(labels, dtype=float) / norms


def _verify_candidate(Xu, loose):
    """Snap the captured points onto their own span and verify it is heavy.
    Returns (HeavySubspace or None, exact): a non-None subspace is always a
    certified answer, and ``exact`` says the span holds exactly k/d of the
    points, where the fixed point crawls. Both verdicts depend on Xu and
    the capture set alone."""
    n, d = Xu.shape
    fitted = span_basis(Xu[loose])
    if fitted.size >= d:
        return None, False
    strict = fitted.distance(Xu) <= MEMBER_RTOL
    if not strict.any():
        return None, False
    refit = span_basis(Xu[strict])
    if refit.size >= d:
        return None, False
    members = refit.distance(Xu) <= MEMBER_RTOL
    count, k = int(members.sum()), refit.size
    if count * d > k * n:  # strict fraction test in integer arithmetic
        return HeavySubspace(refit, count / n, member_mask=members), False
    return None, count * d == k * n


def _detect_heavy(Xu, A, evecs):
    """Try every top-k eigenspace of M, mapped back through A, as a candidate.

    ``evecs`` are the eigenvectors of M in ascending order. Returns the
    first heavy subspace found (or None), and whether some candidate tried
    before it verified a span of exactly k/d of the points.
    """
    n, d = Xu.shape
    Q, _ = np.linalg.qr(np.linalg.solve(A, evecs[:, ::-1]))
    # tail[:, k]: squared distance of each point to the span of Q[:, :k]
    tail = np.cumsum(((Xu @ Q) ** 2)[:, ::-1], axis=1)[:, ::-1]
    crawl = False
    for k in range(1, d):
        loose = tail[:, k] <= ANGULAR_TOL ** 2
        if loose.any():
            found, exact = _verify_candidate(Xu, loose)
            if found is not None:
                return found, crawl
            crawl = crawl or exact
    return None, crawl


def _newton_moment(U, evals, evecs):
    """Second moment S(delta) after a damped Newton step on Barthe's potential.

    ``U`` are the current unit images and (evals, evecs) the eigenpairs of
    their second moment M. Returns the eigenpairs of S(delta), scaled to
    trace d like M, or None when the step fails: a system singular to
    working precision (its solution leaves a residual above NEWTON_RTOL),
    no descent direction, or no Armijo decrease of the potential within
    NEWTON_BACKTRACKS halvings.
    """
    n, d = U.shape
    c = d / n
    p = d * (d + 1) // 2
    W = (U @ evecs) / np.sqrt(evals)  # w_i = M^{-1/2} v_i in M's eigenbasis
    lev = c * np.einsum("ij,ij->i", W, W)
    grad = lev - c
    try:
        if n <= p:
            L = c * (W @ W.T)
            H = np.diag(lev) - L * L + 1.0 / n
            step = np.linalg.solve(H, -grad)
            residual = H @ step + grad
        else:
            # L∘L = F F^T over the p pairs j <= k, so the system is
            # D + G C G^T with D = diag(lev), G = [F, 1], C = diag(-I_p, 1/n);
            # Woodbury on D^{-1/2} G, whose transpose is Gt
            root = np.sqrt(lev)
            q = np.ascontiguousarray((W * np.sqrt(c / root)[:, None]).T)
            Gt = np.empty((p + 1, n))
            row = 0
            for j in range(d):
                Gt[row] = q[j] ** 2
                np.multiply(q[j + 1:], math.sqrt(2.0) * q[j], out=Gt[row + 1:row + d - j])
                row += d - j
            Gt[p] = 1.0 / root
            C = np.full(p + 1, -1.0)
            C[p] = 1.0 / n
            rhs = -grad / root
            z = rhs - np.linalg.solve(Gt @ Gt.T + np.diag(1.0 / C), Gt @ rhs) @ Gt
            step = z / root
            residual = root * (z + (C * (Gt @ z)) @ Gt) + grad
    except np.linalg.LinAlgError:
        return None
    slope = float(grad @ step)
    if not (np.linalg.norm(residual) <= NEWTON_RTOL * np.linalg.norm(grad) and slope < 0.0):
        return None
    f0 = float(np.sum(np.log(evals)))
    alpha = 1.0
    for _ in range(NEWTON_BACKTRACKS):
        delta = alpha * step
        top = float(delta.max())  # f is invariant under delta + t*1
        s_evals, s_evecs = np.linalg.eigh(c * ((U.T * np.exp(delta - top)) @ U))
        if s_evals[0] > 0.0:
            f = float(np.sum(np.log(s_evals))) + d * top - c * float(delta.sum())
            if f <= f0 + ARMIJO * alpha * slope:
                return s_evals * (d / s_evals.sum()), s_evecs
        alpha *= 0.5
    return None


def _cholesky_inverse(M):
    """L^{-1} for M = L L^T, or None when eigh must take the iteration: M is
    not positive definite to working precision, or lambda_min(M) may lie at
    or below CHOLESKY_RTOL * d, where the rank trigger and the degeneracy
    test decide. |L^{-1}|_F^2 = tr M^{-1} bounds lambda_min from below, and
    tr M = d bounds lambda_max from above.
    """
    L, info = lapack.dpotrf(M, lower=1)
    if info != 0:
        return None
    L_inv, info = lapack.dtrtri(L, lower=1, overwrite_c=1)
    if info != 0 or not np.einsum("ij,ij->", L_inv, L_inv) * CHOLESKY_RTOL * len(M) < 1.0:
        return None
    return L_inv


def _certified(A, lam_min, it, newton_steps, newton_from, U):
    """The RadialTransform of iterate A, whose images U certified lam_min."""
    sig = np.linalg.svd(A, compute_uv=False)
    return RadialTransform(
        matrix=A,
        gamma_achieved=max(0.0, 1.0 - float(lam_min)),
        iterations_used=it,
        log_condition_number=float(np.log(sig[0] / sig[-1])),
        newton_steps=newton_steps,
        newton_from=newton_from,
        images=U,
    )


def default_max_iters(d, gamma):
    return 10 * d * math.ceil(math.log(1.0 / gamma)) + 1000


def certifying_gamma(n, d):
    """Isotropy gap of a recursion level: passing it rules out heavy subspaces.

    A k-dimensional subspace holding fraction f of n points caps the
    reachable lambda_min at d(1-f)/(d-k): the subspace image always carries
    at least d*f of the trace mass, leaving at most d(1-f) for the other
    d-k eigenvalues. With f > k/d by at least one point this cap is at most
    1 - d/(n(d-1)), so reaching lambda_min above that certifies that no
    heavy subspace exists. A milder gap would let a set with a heavy
    subspace pass, so every recursion level asks for this one. Returned with
    a factor-2 margin, capped at DEFAULT_GAMMA where that cannot matter: for
    n, d >= 2 the margin is at most 1/2, and at d = 1 or n = 1 a level
    settles at iteration 0. No points raise InsufficientPoints.
    """
    if n < 1:  # before d / n divides by zero
        raise InsufficientPoints("no points to certify a gap for")
    if d < 2:
        return DEFAULT_GAMMA
    return min(DEFAULT_GAMMA, d / (2.0 * n * (d - 1)))


def radial_isotropize(points, gamma=DEFAULT_GAMMA):
    """Find a gamma-approximate radial-isotropic transform or a heavy subspace.

    Points are unit-normalized internally (label co-scaling is the caller's
    job). On success returns a RadialTransform whose ``images`` satisfy
    lambda_min(M) >= 1 - gamma; recomputed with ``apply`` they satisfy it up
    to about eps * cond(A) (see RadialTransform). On structural failure it
    returns a verified HeavySubspace. Points that do not span R^d (fewer
    than d of them, say) come back as their span with fraction 1.0. Raises
    IsotropyStalled when ``default_max_iters(d, gamma)`` iterations,
    fixed-point and Newton steps counted alike, reach neither. No points
    raise InsufficientPoints, and a zero or non-finite one ContractViolation,
    before the first iteration.
    """
    if not 0.0 < gamma < 1.0:
        raise ContractViolation(f"gamma must lie in (0, 1), got {gamma}")
    Xu = _unit_rows(points)
    n, d = Xu.shape
    if n == 0:
        raise InsufficientPoints("no points to put in radial-isotropic position")
    max_iters = default_max_iters(d, gamma)

    A = np.eye(d)
    target = 1.0 - gamma
    newton_steps, newton_from = 0, None
    newton_at = NEWTON_AFTER  # sooner from a detector run that verifies an exactly-k/d span
    newton = True  # until a Newton step fails
    U = Xu  # already unit, and A is still the identity at it == 0
    for it in range(max_iters + 1):
        if it > 0:
            V = Xu @ A.T
            U = V / _row_norms(V)[:, None]
        M = (d / n) * (U.T @ U)
        detect = it % DETECT_EVERY == DETECT_EVERY - 1 or it == max_iters
        if not (detect or newton and it >= newton_at):
            L_inv = _cholesky_inverse(M)
            if L_inv is not None:
                # no rank or degeneracy decision here (see _cholesky_inverse),
                # and eigenvalues only on the certified exit
                if lapack.dpotrf(M - target * np.eye(d), lower=1)[1] == 0:
                    evals = np.linalg.eigvalsh(M)
                    if evals[0] >= target:
                        return _certified(A, evals[0], it, newton_steps, newton_from, U)
                A = L_inv @ A
                continue
        evals, evecs = np.linalg.eigh(M)
        # At it == 0, M is the Gram matrix of Xu over n/d, so a rank deficit
        # (a singular value at most RANK_RTOL times the largest) puts
        # lambda_min at most RANK_RTOL**2 = 1e-18 times lambda_max. Forming
        # and diagonalizing M moves its eigenvalues by about n * eps *
        # lambda_max, orders of magnitude below RANK_RTOL * lambda_max, so
        # this test catches every rank deficit and the SVD runs only on a
        # near-singular spectrum.
        if it == 0 and evals[0] <= RANK_RTOL * evals[-1]:
            if matrix_rank(Xu) < d:
                basis = span_basis(Xu)
                members = basis.distance(Xu) <= MEMBER_RTOL
                return HeavySubspace(basis, 1.0, member_mask=members)
            # Full rank, but lambda_min may sit at the rounding of M, so take
            # the first step from Xu = QR instead: R has the condition number
            # of Xu, not its square. With M = (d/n) R^T R, sqrt(n/d) R^{-T}
            # is M^{-1/2} up to a left rotation, which the iteration ignores.
            R = np.linalg.qr(Xu, mode="r")
            A = math.sqrt(n / d) * np.linalg.inv(R.T)
            continue
        if evals[0] >= target:
            return _certified(A, evals[0], it, newton_steps, newton_from, U)
        degenerate = evals[0] <= DEGENERATE_RTOL * max(evals[-1], 1.0)
        if degenerate or detect:
            found, crawl = _detect_heavy(Xu, A, evecs)
            if found is not None:
                return found
            if crawl:
                newton_at = min(newton_at, it)
            if degenerate or it == max_iters:
                raise IsotropyStalled(
                    f"no transform reached gamma={gamma} within {max_iters} "
                    "iterations and no heavy subspace could be verified"
                )
        if newton and it >= newton_at:  # a crawl, or two detector runs found nothing
            step = _newton_moment(U, evals, evecs)
            if step is None:
                newton = False
            else:
                evals, evecs = step
                newton_steps += 1
                if newton_from is None:
                    newton_from = it
        A = (evecs * (1.0 / np.sqrt(np.maximum(evals, 1e-300)))) @ (evecs.T @ A)
    raise AssertionError("unreachable")

