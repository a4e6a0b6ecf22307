"""pht: pseudo-Hermitian operator toolkit.

Spectral analysis of diagonalizable non-Hermitian operators with real
spectrum, the positive-definite metrics they induce, antilinear (PT-type)
symmetries and their exactness, closed-form two-level families, and
norm-tracking time evolution.
"""

__version__ = "0.1.0"

from .antilinear import (
    AntilinearOperator,
    ExactnessReport,
    InvolutionCheck,
    TimeReversalParams,
    apply_antilinear,
    check_exactness,
    check_pt_symmetry,
    is_hermitian_antilinear_involution,
    make_time_reversal,
    unitary_sqrt_of_tau,
)
from .errors import (
    BrokenSymmetryParamsError,
    ComplexSpectrumError,
    DegenerateDirectionError,
    DimensionMismatchError,
    ExceptionalPointError,
    InvalidAxisError,
    NonFiniteError,
    NoPositiveMetricError,
    NotDiagonalizableError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotPseudoHermitianError,
    NotPTSymmetricError,
    OutOfRangeError,
    PHTError,
    SingularParityError,
    SingularWeightError,
)
from .evolution import (
    EvolutionSpec,
    NormTrajectory,
    evolve,
    fit_growth_rate,
    norm_trajectory,
)
from .families import (
    GeneralFamilyParams,
    GeneralTSystem,
    HermitizeEquivalence,
    SymmetricFamilyParams,
    SymmetricReduction,
    TwoLevelOperators,
    general_hamiltonian,
    general_t_hamiltonian,
    hermitize_equivalence,
    parity_from_angle,
    pauli_rotation,
    reduce_general_to_symmetric,
    symmetric_eigensystem,
    symmetric_hamiltonian,
    symmetric_operators,
)
from .linalg import (
    IDENTITY2,
    PAULI,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    BiorthonormalSystem,
    SpectralData,
    SpectrumClass,
    biorthonormalize,
    eigendecompose,
    matrix_exp,
)
from .metric import (
    InnerProductKind,
    MetricOperator,
    build_charge_conjugation,
    build_eta_plus,
    build_generalized_parity,
    hermitize,
    inner_product,
    map_observable,
    metric_from_hamiltonian,
    verify_pseudo_hermiticity,
)

