"""Least-absolute-deviations fitting, brute-force exact-fit search, rational
snapping, and the clean-vs-corrupted mass comparison used as a test oracle.

The LAD problem min_w sum_i |y_i - w.x_i| is solved through its LP dual

    max y.u   s.t.  X^T u = 0,  -1 <= u_i <= 1,

which has d equality rows and m boxed variables, where the primal epigraph
LP has 2m inequality rows and m + d variables. It is handed to scipy's
HiGHS backend (deterministic, reports true optima). The LAD minimizer is
the vector of multipliers of the d equality rows: w = -eqlin.marginals
(scipy reports marginals for its minimization of -y.u, hence the sign).

When X has full column rank the simplex returns an optimal basis of the
dual: d basic variables u_i with linearly independent rows x_i, every other
u_i at a bound. The multipliers w make the reduced cost y_i - w.x_i of each
basic u_i zero, so w interpolates those d samples exactly. It is therefore
a vertex of the primal: the kind of basic solution every LAD optimum can be
taken from, and the one rational snapping recovers the target from.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .errors import ContractViolation, Degenerate, SolverStalled

FIT_RTOL = 1e-7  # |y - prediction| <= FIT_RTOL * (1 + |y|) counts as an exact fit
# Optimal solves on the benchmark's instances leave relative gaps up to about
# 8e-11; reading w with the wrong sign or off a wrong basis leaves gaps of
# order 1.
DUALITY_GAP_RTOL = 1e-8


def fit_tolerances(y, fit_tol=FIT_RTOL):
    return fit_tol * (1.0 + np.abs(np.asarray(y, dtype=float)))


def exact_fit_mask(pred, y, fit_tol=FIT_RTOL):
    return np.abs(np.asarray(pred) - np.asarray(y)) <= fit_tolerances(y, fit_tol)


@dataclass
class L1FitResult:
    w: np.ndarray
    objective: float
    residuals: np.ndarray
    exact_fit_count: int


def l1_fit_linear(samples, fit_tol=FIT_RTOL):
    """Global minimizer of sum |y_i - w.x_i| via the dual LP.

    Raises SolverStalled when HiGHS reports no optimum, or when the primal
    objective at the recovered w and the dual optimum disagree by more than
    DUALITY_GAP_RTOL relative to 1 + sum |y|.
    """
    X, y = samples.x, samples.y
    d = X.shape[1]
    result = linprog(-y, A_eq=X.T, b_eq=np.zeros(d), bounds=(-1, 1), method="highs")
    if not result.success:
        raise SolverStalled(f"LP backend failed: {result.message}")
    w = -result.eqlin.marginals
    pred = X @ w
    residuals = y - pred
    objective = float(np.sum(np.abs(residuals)))
    gap = abs(objective + result.fun) / (1.0 + float(np.sum(np.abs(y))))
    if gap > DUALITY_GAP_RTOL:
        raise SolverStalled(
            f"LAD duality gap {gap:.3g} exceeds {DUALITY_GAP_RTOL:g}: "
            f"primal {objective:.17g}, dual {-result.fun:.17g}"
        )
    return L1FitResult(
        w=w,
        objective=objective,
        residuals=residuals,
        exact_fit_count=int(exact_fit_mask(pred, y, fit_tol).sum()),
    )


def _relu(t):
    return np.maximum(t, 0.0)


def _predict(X, w, model):
    z = X @ w
    return z if model == "linear" else _relu(z)


def l0_fit_bruteforce(samples, model="linear", fit_tol=FIT_RTOL):
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
    tol = fit_tolerances(y, fit_tol)
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
            count = int((np.abs(_predict(X, w, model) - y) <= tol).sum())
            if count > best_count or (
                count == best_count and tuple(w) < tuple(best_w)
            ):
                best_w, best_count = w, count
    if best_w is None:
        raise Degenerate("every sample subset was singular")
    return best_w, best_count


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


def snap_to_rational(w, max_denominator=10**6):
    """Best rational approximation per coordinate, denominators bounded.

    Uses continued-fraction convergents (fractions.Fraction.limit_denominator),
    so a coordinate within 1/(2*max_denominator^2) of a representable rational
    snaps to it exactly.
    """
    if max_denominator < 1:
        raise ContractViolation(f"max_denominator must be >= 1, got {max_denominator}")
    w = np.asarray(w, dtype=float).ravel()
    if not np.all(np.isfinite(w)):
        raise ContractViolation("cannot snap non-finite values")
    fracs = [Fraction(v).limit_denominator(max_denominator) for v in w]
    return RationalVector(
        numerators=tuple(f.numerator for f in fracs),
        denominators=tuple(f.denominator for f in fracs),
        max_denominator=int(max_denominator),
    )


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
                               direction_budget=360, fit_tol=FIT_RTOL, seed=0):
    """Compare clean vs corrupted perturbation mass over a direction set.

    For each tested unit direction r the margin is

        sum_clean |f((w*+r).x) - f(w*.x)| - sum_corrupted (same),

    where clean means y_i matches f(w*.x_i) within fit_tol. Returns
    (holds, worst_margin): holds is True when every tested margin is
    strictly positive. Grid/sampling checker; a test oracle, not a proof
    for d >= 3.
    """
    X, y = samples.x, samples.y
    m, d = X.shape
    f = (lambda t: t) if model == "linear" else _relu
    clean = exact_fit_mask(_predict(X, w_true, model), y, fit_tol)
    base = f(X @ w_true)
    worst = math.inf
    for r in _direction_grid(d, direction_budget, seed):
        delta = np.abs(f(X @ (w_true + r)) - base)
        margin = float(delta[clean].sum() - delta[~clean].sum())
        if margin < worst:
            worst = margin
    return worst > 0.0, worst
