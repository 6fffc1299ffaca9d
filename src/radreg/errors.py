"""Exception types raised across the package."""


class RadregError(Exception):
    """Base class for all radreg-specific errors. ``diagnostics`` hold the
    error's context, JSON-safe and empty when it has none; the CLI prints them."""

    def __init__(self, msg="", diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(msg)


class ContractViolation(RadregError, ValueError):
    """An input violates a documented precondition (e.g. a zero covariate row)."""


class InvalidNoiseRate(RadregError, ValueError):
    """Massart noise rate outside [0, 1/2)."""


class SimulationInfeasible(RadregError):
    """The inflated Massart rate needed to simulate oblivious noise, in
    ``diagnostics["rate"]``, reaches 1/2."""

    def __init__(self, rate):
        super().__init__(f"inflated rate {rate:.6f} >= 1/2; simulation infeasible",
                         {"rate": float(rate)})


class InsufficientPoints(RadregError):
    """Fewer points than the ambient dimension requires. From ``recover_linear``,
    ``diagnostics["level"]`` is the recursion depth of the shortage (0 = top)."""


class IsotropyStalled(RadregError):
    """The isotropy fixed point reached no transform and no verified heavy
    subspace within its iteration budget."""


class SolverStalled(RadregError):
    """The LP backend reported no optimum, or one it cannot certify for the
    input given; ``diagnostics`` name an input out of the backend's range."""


class NonIdentifiable(RadregError):
    """Covariates do not span the ambient space; the target is not identifiable.
    From ``recover_linear``, ``diagnostics["level"]`` is the recursion depth."""


class HalfspaceEmpty(RadregError):
    """No sample lies in the closed positive halfspace of the query."""


class NoRecovery(RadregError):
    """Ellipsoid search terminated without a certified parameter.

    When ``ellipsoid_recover_relu`` raises it, or any typed error from within
    a step, ``diagnostics`` hold the final ``center`` as a list, its
    ``radius``, the ``steps`` taken, and the oracle's answer when it accepted.
    """


class MalformedCsv(RadregError):
    """Non-numeric or ragged cell in a dataset file, at the 1-based ``row`` and
    ``column`` of ``diagnostics``."""

    def __init__(self, row, column, detail=""):
        super().__init__(f"malformed CSV cell at row {row}, column {column}: {detail}",
                         {"row": row, "column": column})


class DimensionMismatch(RadregError):
    """Dataset rows, or a parameter vector and a dataset, disagree about the dimension."""
