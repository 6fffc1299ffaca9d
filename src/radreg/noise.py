"""Label-corruption adversaries.

Two adversaries are implemented. The Massart adversary flags each sample
independently with probability eta and may rewrite the flagged labels using
any deterministic function of the whole dataset (it can also decline). The
oblivious adversary adds a sparse +-magnitude vector at covariate-independent
positions. ``inflated_massart_rate`` gives the rate at which the former
simulates the latter with probability 1 - delta.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a seed
pins the corrupted dataset bit for bit. The corruptible flags are drawn
before the strategy ever sees the data, which keeps them independent of the
covariates by construction.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import ContractViolation, InvalidNoiseRate, SimulationInfeasible
from .l1 import _check_positive_int


# --- corruption strategies ---------------------------------------------------
#
# A strategy answers two questions for the flagged samples: which of them the
# adversary bothers to corrupt (``selects``), and what the rewritten label is
# (``target_labels``). Both are deterministic functions of the full dataset.

def _every_sample(self, x, y):
    """``selects`` of a strategy that rewrites every flagged sample."""
    return np.ones(len(y), dtype=bool)


@dataclass
class FlipNegate:
    """Rewrite y to -y."""

    selects = _every_sample

    def target_labels(self, x, y):
        return -y

    def to_json(self):
        return {"kind": "flip-negate"}


@dataclass
class Scale:
    """Rewrite y to factor * y."""

    factor: float
    selects = _every_sample

    def target_labels(self, x, y):
        return self.factor * y

    def to_json(self):
        return {"kind": "scale", "factor": self.factor}


@dataclass
class Constant:
    """Rewrite y to a fixed value."""

    value: float
    selects = _every_sample

    def target_labels(self, x, y):
        return np.full(len(y), self.value)

    def to_json(self):
        return {"kind": "constant", "value": self.value}


@dataclass
class Gated:
    """Apply ``inner`` only to samples with some covariate coordinate strictly
    above ``threshold``; decline elsewhere."""

    threshold: float
    inner: object

    def selects(self, x, y):
        return np.any(x > self.threshold, axis=1) & self.inner.selects(x, y)

    def target_labels(self, x, y):
        return self.inner.target_labels(x, y)

    def to_json(self):
        return {
            "kind": "gated",
            "predicate": {"kind": "any-coord-above", "threshold": self.threshold},
            "inner": self.inner.to_json(),
        }


def _number(obj, key):
    """float(obj[key]) when finite, or ContractViolation naming ``key``."""
    try:
        value = float(obj[key])
    except (KeyError, TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ContractViolation(f"field {key!r} of {obj!r} is missing or not a finite number")
    return value


def strategy_from_json(obj):
    """The strategy whose ``to_json`` is ``obj``. ContractViolation names an
    unknown kind, or the field that is missing or not a finite number."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "flip-negate":
        return FlipNegate()
    if kind == "scale":
        return Scale(_number(obj, "factor"))
    if kind == "constant":
        return Constant(_number(obj, "value"))
    if kind == "gated":
        predicate = obj.get("predicate")
        if not (isinstance(predicate, dict) and predicate.get("kind") == "any-coord-above"):
            raise ContractViolation(
                f"field 'predicate' of {obj!r} must be an any-coord-above predicate")
        return Gated(_number(predicate, "threshold"), strategy_from_json(obj.get("inner")))
    raise ContractViolation(f"unknown strategy {obj!r}: its 'kind' is none of "
                            "flip-negate, scale, constant, gated")


def gated_flip(threshold):
    """Flip-to-negative gated on any coordinate exceeding ``threshold``."""
    return Gated(threshold, FlipNegate())


# --- Massart corruption ------------------------------------------------------

@dataclass
class MassartSpec:
    """Noise rate (eta < 1/2), strategy and seed (an integer >= 0) for one corruption pass."""

    eta: float
    strategy: object = field(default_factory=FlipNegate)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < 0.5:
            raise InvalidNoiseRate(f"eta must lie in [0, 1/2), got {self.eta}")
        self.seed = _check_positive_int(self.seed, "seed", least=0)

    def to_json(self):
        return {"eta": self.eta, "strategy": self.strategy.to_json(), "seed": self.seed}


@dataclass
class CorruptionRecord:
    """Ground truth of a corruption pass.

    ``mask`` marks samples whose label the adversary rewrote (a rewrite may
    coincide with the original, e.g. negating a zero). ``corruptible`` is the
    eta-probability flag mask drawn before the data was inspected; ``mask``
    is always a subset of it.
    """

    mask: np.ndarray
    corruptible: np.ndarray


def corrupt_massart(clean, spec):
    """Apply a Massart adversary to a clean dataset.

    Returns (corrupted dataset, CorruptionRecord). The flag mask depends only
    on (seed, m, eta); the strategy then decides, deterministically from the
    full dataset, which flagged labels to rewrite and to what.
    """
    if not 0.0 <= spec.eta < 0.5:
        raise InvalidNoiseRate(f"eta must lie in [0, 1/2), got {spec.eta}")
    rng = np.random.default_rng(spec.seed)
    flagged = rng.random(clean.m) < spec.eta
    chosen = flagged & spec.strategy.selects(clean.x, clean.y)
    targets = spec.strategy.target_labels(clean.x, clean.y)
    y_new = np.where(chosen, targets, clean.y)
    return LabeledDataset(clean.x.copy(), y_new), CorruptionRecord(chosen, flagged)


# --- oblivious corruption ----------------------------------------------------

def corrupt_oblivious(clean_labels, eta, b_magnitude, seed=0):
    """Add an exactly floor(eta*m)-sparse +-b_magnitude vector to the labels.

    Positions and signs are drawn independently of everything else, which is
    what makes this adversary oblivious. A rate outside [0, 1], a non-finite
    ``b_magnitude`` or a seed that is not an integer >= 0 raises ContractViolation.
    """
    y = np.asarray(clean_labels, dtype=float).copy()
    seed = _check_positive_int(seed, "seed", least=0)
    if not 0.0 <= eta <= 1.0:
        raise ContractViolation(f"oblivious rate must lie in [0, 1], got {eta}")
    if not math.isfinite(b_magnitude):
        raise ContractViolation(f"b_magnitude must be finite, got {b_magnitude}")
    m = y.shape[0]
    k = int(math.floor(eta * m))
    if k == 0:
        return y
    rng = np.random.default_rng(seed)
    positions = rng.choice(m, size=k, replace=False)
    signs = rng.choice([-1.0, 1.0], size=k)
    y[positions] += signs * b_magnitude
    return y


def inflated_massart_rate(eta, m, delta):
    """Massart rate eta + sqrt(ln(1/delta) / (2m)) that covers an eta-oblivious
    adversary with probability at least 1 - delta.

    Raises SimulationInfeasible when the inflated rate reaches 1/2; the rate
    is never silently clamped. A NaN or negative ``eta`` raises
    InvalidNoiseRate, and an ``m`` that is not an integer >= 1 or a ``delta``
    outside (0, 1] raises ContractViolation.
    """
    if not eta >= 0.0:
        raise InvalidNoiseRate(f"eta must be >= 0, got {eta}")
    m = _check_positive_int(m, "m")
    if not 0.0 < delta <= 1.0:
        raise ContractViolation(f"need 0 < delta <= 1, got {delta}")
    rate = eta + math.sqrt(math.log(1.0 / delta) / (2.0 * m))
    if rate >= 0.5:
        raise SimulationInfeasible(rate)
    return rate
