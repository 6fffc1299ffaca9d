"""Exact linear and ReLU regression under Massart label corruption.

The pipeline: rescale the covariates into approximate radial-isotropic
position, minimize the l1 loss (a linear program for linear models; for
ReLUs a certified least-squares half fit, else an ellipsoid method with a
gradient separation oracle), and snap the minimizer to bounded-denominator
rationals for exact recovery.
"""

from .data import LabeledDataset, load_dataset_csv, save_dataset_csv
from .errors import (
    ContractViolation,
    DimensionMismatch,
    HalfspaceEmpty,
    InsufficientPoints,
    InvalidNoiseRate,
    IsotropyStalled,
    MalformedCsv,
    NoRecovery,
    NonIdentifiable,
    RadregError,
    SimulationInfeasible,
    SolverStalled,
)
from .isotropy import HeavySubspace, RadialTransform, radial_isotropize
from .l1 import L1FitResult, RationalVector, l1_fit_linear, lad_fit, snap_to_rational
from .linalg import OrthonormalBasis, orthonormal_complement
from .linear import RecoveryReport, recover_linear
from .noise import (
    Constant,
    CorruptionRecord,
    FlipNegate,
    Gated,
    MassartSpec,
    Scale,
    corrupt_massart,
    corrupt_oblivious,
    gated_flip,
    inflated_massart_rate,
    strategy_from_json,
)
from .relu import (
    EllipsoidConfig,
    SepResult,
    ellipsoid_cut,
    ellipsoid_recover_relu,
    gd_relu_transformed,
    relu_l1_loss,
    sep_oracle,
)
from .bench import (
    BenchReport,
    SyntheticSpec,
    default_target,
    exact_recovery_bench,
    make_synthetic_dataset,
    margin_fraction,
    method_registry,
)

__version__ = "0.1.0"
