"""Exception types raised across the package."""


class RadregError(Exception):
    """Base class for all radreg-specific errors."""


class ContractViolation(RadregError, ValueError):
    """An input violates a documented precondition (e.g. a zero covariate row)."""


class EmptyComplement(RadregError):
    """Orthonormal complement requested for a basis that already spans the space."""


class InvalidNoiseRate(RadregError, ValueError):
    """Massart noise rate outside [0, 1/2)."""


class SimulationInfeasible(RadregError):
    """The inflated Massart rate needed to simulate oblivious noise reaches 1/2."""

    def __init__(self, rate):
        self.rate = rate
        super().__init__(f"inflated rate {rate:.6f} >= 1/2; simulation infeasible")


class InsufficientPoints(RadregError):
    """Fewer points than the ambient dimension requires.

    ``level`` records the recursion depth at which the shortage occurred
    (0 = top-level call).
    """

    def __init__(self, msg, level=0):
        self.level = level
        super().__init__(msg)


class IsotropyStalled(RadregError):
    """The isotropy fixed point reached no transform and no verified heavy
    subspace within its iteration budget."""


class SolverStalled(RadregError):
    """The LP backend failed to report an optimal solution."""


class NonIdentifiable(RadregError):
    """Covariates do not span the ambient space; the target is not identifiable."""

    def __init__(self, msg, level=0):
        self.level = level
        super().__init__(msg)


class HalfspaceEmpty(RadregError):
    """No sample lies in the closed positive halfspace of the query.

    When ``ellipsoid_recover_relu`` raises it, ``diagnostics`` hold where
    the search stood, as for NoRecovery.
    """

    def __init__(self, msg, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(msg)


class NoRecovery(RadregError):
    """Ellipsoid search terminated without a certified parameter.

    When ``ellipsoid_recover_relu`` raises it, ``diagnostics`` is JSON-safe:
    the final ``center`` as a list, its ``radius``, the ``steps`` taken, and
    the oracle's answer when it accepted.
    """

    def __init__(self, msg, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(msg)


class MalformedCsv(RadregError):
    """Non-numeric or ragged cell in a dataset file (1-based row/col)."""

    def __init__(self, row, col, detail=""):
        self.row = row
        self.col = col
        super().__init__(f"malformed CSV cell at row {row}, column {col}: {detail}")


class DimensionMismatch(RadregError):
    """Dataset rows, or a parameter vector and a dataset, disagree about the dimension."""
