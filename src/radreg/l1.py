"""Least-absolute-deviations fitting, the exact-fit test and rational snapping.

The LAD problem min_w sum_i |y_i - w.x_i| is solved through its LP dual

    max y.u   s.t.  X^T u = 0,  -1 <= u_i <= 1,

which has d equality rows and m boxed variables, where the primal epigraph LP has 2m inequality
rows and m + d variables. ``linprog`` hands it to HiGHS's dual simplex (Huangfu & Hall, Math.
Prog. Comp. 2018; deterministic, reports true optima) through the bindings scipy ships, without
the input checks and conversions ``scipy.optimize.linprog`` runs on every call, on one HiGHS
instance per thread, its options set once and its model cleared before each LP: over the 103 LPs
of three d=30, n=120 sweep calls, about 0.2 ms before the first pivot (0.4 ms on a new instance,
2.3 ms through scipy's checks) and 17 us a pivot. The LAD minimizer is the vector of multipliers
of the d equality rows: w = -row duals (the duals of HiGHS's min -y.u).

When X has full column rank the simplex returns an optimal basis of the dual: d basic variables
u_i with linearly independent rows x_i, every other u_i at a bound. The multipliers w make the
reduced cost y_i - w.x_i of each basic u_i zero, so w interpolates those d samples exactly. It
is therefore a vertex of the primal: the kind of basic solution every LAD optimum can be taken
from, and the one rational snapping recovers the target from.

HiGHS runs without presolve. On the dense dual of Gaussian-like data it removes nothing (the 100
x 750 LP of a d=100 benchmark leaf: "Not reduced", 0.12 s with presolve against 0.08 s without)
or a few rows (4 of 30 on a d=30, n=120 sweep LP, after which HiGHS re-solves the original LP
from the postsolved point, 7.5 ms against 1.6 ms, times on one thread of a 2-vCPU x86-64 VM).
The multipliers then come from the simplex's own final factorization rather than from that
re-solve, which costs accuracy: fit on raw d=30, n=120 mixture instances with the gated flip at
eta=0.3, w lies up to about 2e-11 from the vertex its interpolated rows define (up to about
7e-13 with presolve), far inside the +-5e-7 basin in which snapping at denominator 1e6 rounds to
an integer target. The duality-gap check below is what stands behind an answer either way, or,
when HiGHS dropped entries of X, a ``lad_optimal`` proof on the X given.

``lad_optimal`` certifies a candidate w without the LP. By complementary slackness w is optimal
exactly when a dual point u has u_i = sign(r_i) on every row with a nonzero residual r_i; the
rows w fits exactly are free in [-1, 1] and must cancel the rest, X_Z^T u_Z = -X_N^T sign(r_N).
Alternating projections seek such a u, or a Farkas certificate that none exists.

``lad_fit`` is the one LAD entry point. It looks for a w to certify before it solves the LP.
When more than half of the rows are fit exactly by one w, as under Massart noise with eta < 1/2,
a least-squares fit on a half of the rows that holds only such rows is that w to rounding; with
fewer rows, the minimizer is a vertex that interpolates d of them, and the w that interpolates d
independent rows it fits is that vertex. From HALF_ROWS_PER_DIM rows per dimension on, the
concentration steps of FAST-LTS (Rousseeuw & Van Driessen, Data Min. Knowl. Discov. 2006) refit
on the half of the rows with the smallest residuals under the last fit. The vertex, tried at
every size, starts from the last C-step, or below from reweighted least squares (Schlossmacher,
JASA 1973). A try is kept only when ``lad_optimal`` proves it, else HiGHS solves the LP."""

import math
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize._highspy._core import (HighsModelStatus, HighsStatus, MatrixFormat, ObjSense,
                                           _Highs)

from .errors import ContractViolation, SolverStalled
from .linalg import _row_norms

# |y - prediction| <= FIT_RTOL * (1 + |y|) counts as an exact fit. Certificates
# judge each point on (x/|x|, y/|x|): on raw values the floor of 1e-7 passes
# every point of a set scaled small enough, junk labels included.
FIT_RTOL = 1e-7
# Optimal solves on the benchmark's instances leave relative gaps up to about
# 8e-11; reading w with the wrong sign or off a wrong basis leaves gaps of
# order 1.
DUALITY_GAP_RTOL = 1e-8
# |X^T u| a certifying dual point may leave: HiGHS's default primal
# feasibility tolerance, which the LP's own dual point meets.
DUAL_FEAS_TOL = 1e-7
# Rounds of alternating projections before lad_optimal gives up. The half-fit answers of
# the benchmark's 1560 leaves with n >= 6d (seeds 0-19) certify within 37 rounds, 1384 of
# them in one. Of the refusals that reach it, a Farkas certificate ends most far sooner.
CERTIFY_ROUNDS = 100
# Reweighted rounds before the ReLU candidate gives up, and C-steps before the
# half fit of lad_fit does. On those 1560 leaves it certified at C-step 1 to 6.
IRLS_ROUNDS = 16
# Rows per dimension from which lad_fit tries the half fit, before the vertex.
# On 40 d=30, n=120 mixture leaves (4d rows) the C-steps certify 28 of the 29
# leaves the vertex certifies, and no other, so below it the vertex goes first.
HALF_ROWS_PER_DIM = 6
# Reweighted rounds that rank the rows for the vertex below HALF_ROWS_PER_DIM
# rows per dimension.
VERTEX_IRLS_ROUNDS = 4


def exact_fit_mask(pred, y):
    y = np.asarray(y, dtype=float)
    return np.abs(np.asarray(pred) - y) <= FIT_RTOL * (1.0 + np.abs(y))


def _row_scales(X, y):
    """(norms, scales, y_scaled): the row norms of X, the same as divisors (0 read as 1),
    and y over those. The majority certificates judge predictions p as
    exact_fit_mask(p / scales, y_scaled), each point on (x/|x|, y/|x|)."""
    norms = _row_norms(X)
    scales = np.where(norms > 0.0, norms, 1.0)
    return norms, scales, y / scales


# success: HiGHS's model status is kOptimal; message: that status by name; fun: the
# optimum of min -y.u; w: minus the duals of the d equality rows; nit: simplex iterations;
# u: the dual point when passModel warned that it dropped entries of X, else None
LinprogResult = namedtuple("LinprogResult", "success message fun w nit u")


_THREAD = threading.local()  # per thread, the one HiGHS instance of its linprog calls


def _highs():
    if not hasattr(_THREAD, "highs"):
        _THREAD.highs = _Highs()
        for option, value in (("output_flag", False), ("presolve", "off"), ("simplex_strategy", 1)):
            _THREAD.highs.setOptionValue(option, value)  # simplex_strategy 1 is the dual simplex
    return _THREAD.highs


def linprog(X, y):
    """The LAD dual LP by HiGHS, with the column-wise X^T (zeros dropped)
    and options of ``scipy.optimize.linprog(-y, A_eq=X.T, b_eq=0,
    bounds=(-1, 1), method="highs", options={"presolve": False})``."""
    m, d = X.shape
    if X.all():  # the arrays np.nonzero would give, without its passes over X
        starts, cols, values = np.arange(0, m * d + 1, d), np.tile(np.arange(d), m), X.ravel()
    else:
        rows, cols = np.nonzero(X)
        starts, values = np.concatenate(([0], np.bincount(rows, minlength=m).cumsum())), X[rows, cols]
    highs = _highs()
    highs.clearModel()
    # passModel rejects an empty integrality array; after an error the
    # model is left empty and its status is not optimal
    passed = highs.passModel(m, d, len(cols), MatrixFormat.kColwise, ObjSense.kMinimize, 0.0, -y,
                             np.full(m, -1.0), np.ones(m), np.zeros(d), np.zeros(d), starts,
                             cols, values, np.zeros(m, dtype=np.int32))
    highs.run()
    status, info, solution = highs.getModelStatus(), highs.getInfo(), highs.getSolution()
    return LinprogResult(status == HighsModelStatus.kOptimal, highs.modelStatusToString(status),
                         info.objective_function_value, -np.asarray(solution.row_dual),
                         info.simplex_iteration_count,
                         np.asarray(solution.col_value) if passed == HighsStatus.kWarning else None)


@dataclass
class L1FitResult:
    w: np.ndarray
    objective: float
    residuals: np.ndarray
    iterations: int  # simplex iterations HiGHS reports (LinprogResult.nit)


def _stalled(msg, name, values, option):
    """SolverStalled(msg), naming the largest |entry| of ``values`` when it reaches
    HiGHS's ``option``: an entry of X HiGHS refuses, or a cost it reads as infinite."""
    limit = _highs().getOptionValue(option)[1]
    index = [int(i) for i in np.unravel_index(np.argmax(np.abs(values)), values.shape)]
    magnitude = float(np.abs(values).max())
    if magnitude < limit:
        return SolverStalled(msg)
    return SolverStalled(f"{msg}; |{name}{index}| = {magnitude:g} >= HiGHS's {option} {limit:g}",
                         {"input": name, "index": index, "magnitude": magnitude, option: limit})


def l1_fit_linear(samples):
    """Global minimizer of sum |y_i - w.x_i| via the dual LP.

    Raises SolverStalled when HiGHS reports no optimum; when it dropped entries
    of X at or below its small_matrix_value, its dual point u then leaves
    |X_j^T u| > DUAL_FEAS_TOL * |X_j|_1 in a column j, and ``lad_optimal`` does
    not prove its w on the X given (a proof returns that w); or when the primal
    objective at the recovered w and the dual optimum disagree by more than
    DUALITY_GAP_RTOL relative to 1 + sum |y|. ``diagnostics`` name the input
    HiGHS could not take.
    """
    X, y = samples.x, samples.y
    result = linprog(X, y)
    if not result.success:
        raise _stalled(f"LP backend failed: {result.message}", "x", X, "large_matrix_value")
    residuals = y - X @ result.w
    objective = float(np.sum(np.abs(residuals)))
    fit = L1FitResult(w=result.w, objective=objective, residuals=residuals,
                      iterations=result.nit)
    if result.u is not None:
        bad = np.flatnonzero(np.abs(X.T @ result.u) > DUAL_FEAS_TOL * np.abs(X).sum(axis=0))
        if bad.size:
            if lad_optimal(samples, result.w):
                return fit  # HiGHS's dual point is for the LP without the dropped entries
            raise SolverStalled(f"LP backend failed: HiGHS dropped entries of X at or below its "
                                f"small_matrix_value; its dual point violates column {bad[0]}",
                                {"column": int(bad[0])})
    gap = abs(objective + result.fun) / (1.0 + float(np.sum(np.abs(y))))
    if not gap <= DUALITY_GAP_RTOL:
        raise _stalled(f"LAD duality gap {gap:.3g} exceeds {DUALITY_GAP_RTOL:g}: "
                       f"primal {objective:.17g}, dual {-result.fun:.17g}",
                       "y", y, "infinite_cost")
    return fit


def lad_optimal(samples, w):
    """Whether a dual point proves w a global minimizer of sum |y_i - w.x_i|.

    A proof is a u in [-1, 1]^Z with |X_Z^T u - t| <= DUAL_FEAS_TOL, for the rows Z that w fits
    and t = ``target``. False only means that none was found within CERTIFY_ROUNDS rounds, or
    that none can be: the projections stalled off the box, or a Farkas certificate v showed it.
    Every such u has v.t <= sum_Z |x_i.v| + DUAL_FEAS_TOL |v|_1, so a v that breaks this by more
    than rounding leaves no round that could return True: returning False moves no decision. v =
    G^{-1} X_Z^T (u - clip(u)) is one at the projections' fixed point, tried where the box gap
    shrank by less than half, so fast proofs pay nothing. Rows fit within FIT_RTOL count as fit
    exactly: no w' lowers the objective by more than twice their residuals. A w not of length d
    raises DimensionMismatch."""
    X, y = samples.x, samples.y
    pred = X @ samples.parameter(w)
    free = exact_fit_mask(pred, y)
    Xz = X[free]
    target = -X[~free].T @ np.sign(y[~free] - pred[~free])
    gram = Xz.T @ Xz
    factor, info = dpotrf(gram, clean=0)  # cho_factor's LAPACK call, without its wrapper
    if info:  # the exactly fit rows do not span
        return False
    inverse = dpotrs(factor, np.eye(len(gram)))[0]  # projecting: u += X_Z G^-1 (t - X_Z^T u)
    # a Farkas test's rounding per unit |v|, as sum_Z |x_i| |v| <= sqrt(|Z| trace G) |v|
    rounding = 4 * np.finfo(float).eps * sum(Xz.shape) * (math.sqrt(len(Xz) * np.trace(gram))
                                                          + np.linalg.norm(target) + len(gram))
    u = np.zeros(Xz.shape[0])
    gap = np.inf
    for _ in range(CERTIFY_ROUNDS):
        u += Xz @ (inverse @ (target - Xz.T @ u))
        if np.abs(u).max(initial=0.0) <= 1.0:
            return bool(np.abs(Xz.T @ u - target).max(initial=0.0) <= DUAL_FEAS_TOL)
        clipped = np.clip(u, -1.0, 1.0)
        # Alternating projections never widen the distance from the affine
        # set to the box; when it stops shrinking, above rounding, they are
        # at a fixed point and the two sets do not meet.
        last, gap = gap, float(np.linalg.norm(u - clipped))
        if DUAL_FEAS_TOL < gap >= last:
            return False
        if 2.0 * gap > last:
            v = inverse @ (Xz.T @ (u - clipped))
            bound = DUAL_FEAS_TOL * np.abs(v).sum() + rounding * np.linalg.norm(v)
            if target @ v - np.abs(Xz @ v).sum() > bound:
                return False
        u = clipped
    return False


def _least_squares(X, y, weights=None, out=None):
    """argmin_w sum_i weights_i (y_i - w.x_i)^2 by the normal equations, the weighted rows
    written to ``out``; LinAlgError when the rows do not span or the equations overflow."""
    if X.shape[0] < X.shape[1]:  # the Cholesky factor of a singular Gram can pass
        raise LinAlgError(f"{X.shape[0]} rows cannot span dimension {X.shape[1]}")
    Xw = X if weights is None else np.multiply(X, weights[:, None], out=out)
    with np.errstate(over="ignore", invalid="ignore"):  # rows of |x| near 1e155 and up
        gram, rhs = Xw.T @ X, Xw.T @ y
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise LinAlgError("the normal equations overflow")
    factor, info = dpotrf(gram, clean=0)  # cho_factor's and cho_solve's LAPACK calls
    if info:
        raise LinAlgError(f"leading minor {info} of the Gram matrix is not positive definite")
    return dpotrs(factor, rhs)[0]


def _reweighted(X, y, scales=None, out=None):
    """(round, w) for rounds 0..IRLS_ROUNDS of reweighted least squares
    (Schlossmacher, JASA 1973): round 0 is the least-squares fit, and each later round weighs
    by 1 / max(|r_i|, FIT_RTOL * (1 + |y_i|)), so a row already fit exactly gets
    the largest weight; LinAlgError when the weighted rows do not span. With ``scales`` s, on
    (x_i/s_i, y_i/s_i) without forming them: each weight over s_i^2, weighted rows in ``out``."""
    s = 1.0 if scales is None else scales
    w = _least_squares(X, y, None if scales is None else 1.0 / s**2, out)
    yield 0, w
    floor = FIT_RTOL * (1.0 + np.abs(y / s))
    for rounds in range(1, IRLS_ROUNDS + 1):
        w = _least_squares(X, y, 1.0 / (s**2 * np.maximum(np.abs(y - X @ w) / s, floor)), out)
        yield rounds, w


def _c_steps(X, y):
    """(step, w, exact) per C-step: least squares on the floor(n/2) rows with the smallest |r_i|
    under the last fit (first on all rows), in one work array; ``exact`` when w fits its whole
    half. A caller resumes only after refusing w. The steps end when the half repeats, when
    a refused exact w fits the next half too (ties among over n/2 exact fits), or at IRLS_ROUNDS."""
    half = X.shape[0] // 2
    work = np.empty((half, X.shape[1]))
    tol = FIT_RTOL * (1.0 + np.abs(y))
    r = np.abs(y - X @ _least_squares(X, y))
    for step in range(1, IRLS_ROUNDS + 1):
        new = np.zeros(len(y), dtype=bool)  # a mask: sorted indices raised the peak RSS
        new[np.argpartition(r, half - 1)[:half]] = True
        if step > 1 and (rows[new].all() or exact and (r[new] <= tol[new]).all()):
            return
        rows = new
        w = _least_squares(np.compress(rows, X, axis=0, out=work), y[rows])
        r = np.abs(y - X @ w)
        exact = bool((r[rows] <= tol[rows]).all())
        yield step, w, exact


def _best_rows(X, y, w, k, scales=1.0):
    """Indices of the k rows with the smallest |y_i - w.x_i| / scales_i."""
    return np.argpartition(np.abs(y - X @ w) / scales, k - 1)[:k]


def _lad_info(lad, rounds, lp_rows=0, lp_iterations=0):
    return {"lad": lad, "rounds": rounds, "lp_rows": lp_rows,
            "lp_solves": int(lp_rows > 0), "lp_iterations": lp_iterations}


def lad_fit(samples):
    """A global minimizer of sum |y_i - w.x_i|, and how it was found: (w, info).

    Three tries, in order; the first that gives a w returns it.

    - ``"half"``, with n >= HALF_ROWS_PER_DIM * d rows: each C-step of FAST-LTS (Rousseeuw &
      Van Driessen 2006; ``_c_steps``), least squares on the floor(n/2) rows of smallest |r_i|.
    - ``"vertex"``: from the last C-step, or below that size after VERTEX_IRLS_ROUNDS
      reweighted rounds (``_reweighted``), the w' that interpolates the d rows
      with the smallest |r_i|, refit on every row w' fits exactly.
    - ``"lp"``: ``l1_fit_linear`` on all n rows.

    The first two keep a fit only when it fits every row it was fit on
    exactly and ``lad_optimal`` proves it a minimizer on all n rows. That
    proof counts residuals within FIT_RTOL as exact fits, so without the
    first test a fit that misses a rewritten row with a small residual,
    and lies 1e-7 or so off the target, could pass. When the rows, weighted
    or chosen, do not span or overflow, the LP is solved. No randomness is used.

    ``info`` holds ``lad``, the try that gave w, ``rounds``, the C-steps or
    (below HALF_ROWS_PER_DIM * d rows) reweighted rounds run, and ``lp_rows``,
    ``lp_solves`` and ``lp_iterations``, the LP's rows, solves and simplex
    iterations (0 when no LP was solved). The LP raises what ``l1_fit_linear`` raises.
    """
    X, y = samples.x, samples.y
    n, d = X.shape
    rounds = 0
    try:
        if n < HALF_ROWS_PER_DIM * d:
            for rounds, w in _reweighted(X, y):
                if rounds == VERTEX_IRLS_ROUNDS:
                    break
        else:
            for rounds, w, exact in _c_steps(X, y):
                if exact and lad_optimal(samples, w):
                    return w, _lad_info("half", rounds)
        best = _best_rows(X, y, w, d)
        rows = exact_fit_mask(X @ np.linalg.solve(X[best], y[best]), y)
        Xr, yr = X[rows], y[rows]
        w = _least_squares(Xr, yr)
        if exact_fit_mask(Xr @ w, yr).all() and lad_optimal(samples, w):
            return w, _lad_info("vertex", rounds)
    except LinAlgError:
        pass
    fit = l1_fit_linear(samples)
    return fit.w, _lad_info("lp", rounds, n, fit.iterations)


@dataclass
class RationalVector:
    """Per-coordinate reduced fractions with a shared denominator bound."""

    numerators: tuple
    denominators: tuple
    max_denominator: int

    def to_floats(self):
        return np.array([n / d for n, d in zip(self.numerators, self.denominators)])

    def to_fractions(self):
        return tuple(Fraction(n, d) for n, d in zip(self.numerators, self.denominators))

    def __eq__(self, other):
        if isinstance(other, RationalVector):
            return self.to_fractions() == other.to_fractions()
        return NotImplemented

    def __hash__(self):
        return hash(self.to_fractions())

    def to_json(self):
        return {
            "numerators": list(self.numerators),
            "denominators": list(self.denominators),
            "max_denominator": self.max_denominator,
            "values": [float(v) for v in self.to_floats()],
        }


def _check_positive_int(value, name, least=1):
    """``value`` as an int, or ContractViolation naming ``name`` unless it is an
    integer (``operator.index``: no floats, however integral) of at least ``least``."""
    try:
        bound = operator.index(value)
    except TypeError:
        bound = least - 1
    if bound < least:
        raise ContractViolation(f"{name} must be an integer >= {least}, got {value!r}")
    return bound


def _check_positive_finite(value, name):
    if not (math.isfinite(value) and value > 0):
        raise ContractViolation(f"{name} must be positive and finite, got {value!r}")


def _limit_denominator(num, den, bound):
    """``Fraction(num, den).limit_denominator(bound)`` as a reduced pair, for
    reduced ints with den > 0. Convergents p1/q1 run until the next
    denominator exceeds the bound; the best semiconvergent (p0 + k p1)/q,
    q = q0 + k q1 <= bound, lies on the other side of num/den, 1/(q1 q) from
    p1/q1, which is d/(q1 den) from num/den for the last remainder d: p1/q1
    wins, ties included, exactly when 2 d q <= den.
    """
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    q = q0 + k * q1
    if 2 * d * q <= den:
        return p1, q1
    return p0 + k * p1, q


def snap_to_rational(w, max_denominator=10**6):
    """Best rational approximation per coordinate, denominators bounded.

    Each coordinate gets ``Fraction(v).limit_denominator(max_denominator)``,
    computed on the ints of ``v.as_integer_ratio()`` (``_limit_denominator``),
    so a coordinate within 1/(2*max_denominator^2) of a representable
    rational snaps to it exactly. ``max_denominator`` must be an integer.
    """
    bound = _check_positive_int(max_denominator, "max_denominator")
    w = np.asarray(w, dtype=float).ravel()
    if not np.all(np.isfinite(w)):
        raise ContractViolation("cannot snap non-finite values")
    pairs = [_limit_denominator(*v.as_integer_ratio(), bound) for v in w.tolist()]
    return RationalVector(
        numerators=tuple(p for p, _ in pairs),
        denominators=tuple(q for _, q in pairs),
        max_denominator=bound,
    )
