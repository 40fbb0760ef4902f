"""Exact toolkit for toric fibrations over the affine line: fans and
models, log discrepancies and the mld, the negativity certificate and
surface intersection numbers."""

from .exactmath import (
    InvariantViolation,
    LatticeVector,
    Rat,
    RationalVector,
    primitive,
    solve_in_basis,
)
from .fan import Cone, Fan, multiplicity, smallest_containing_cone, standard_fibration_fan, star_subdivide
from .divisors import (
    Subdivision,
    SupportFunction,
    ToricDivisor,
    canonical_divisor,
    character_divisor,
    horizontal_sum,
    log_discrepancy,
    pullback,
    ray_divisor,
    rel_lin_equiv,
    support_function,
    toric_mld,
    zero_divisor,
)
from .models import (
    DecompositionData,
    FibrationModel,
    log_canonical_class_split,
    model_V,
    model_W_U,
    model_Y,
    verify_extraction_identities,
)
from .criterion import (
    CertificateReport,
    ExplicitBounds,
    ScanSummary,
    certify,
    epsilon_prime,
    scan,
)
from .surface import ChainModels, ChainReport, example_models, example_verify, intersect

__version__ = "0.1.0"
