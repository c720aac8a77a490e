"""Homoclinic orbits and spectral verification for first-order discrete
Hamiltonian lattices: operator assembly, Bloch band structure, hypothesis
checking, a damped Newton orbit solver, and independent orbit verification.
"""

from .core import (
    BlockVector,
    Boundary,
    ConfigurationError,
    DimensionMismatchError,
    HypothesisViolationError,
    NumericalError,
    PeriodicCoefficients,
    SpectralGapError,
    Window,
    coupling_matrix,
    l2_inner,
    lp_norm,
    reembed,
    shift,
)
from .functional import FunctionalContext, Phi, Phi_split, Psi, energy_defect, grad_Phi
from .manufactured import ManufacturedProblem, manufactured_problem
from .nonlinearity import (
    FAMILIES,
    HypothesisReport,
    Nonlinearity,
    SamplingPlan,
    check_hypotheses,
    eval_tildeR,
    family_log_saturating,
    family_quadratic,
    family_radial_rational,
    growth_envelope_constant,
)
from .operators import (
    TruncatedOperator,
    apply_A,
    apply_S,
    assemble,
    floquet_symbol,
)
from .spectral import (
    BandStructure,
    SpectralDecomposition,
    band_structure,
    eigendecompose,
)
from .solver import (
    SolveOptions,
    SolveResult,
    StartStrategy,
    deduplicate_results,
    default_starts,
    initial_guess,
    multi_start,
    newton_solve,
)
from .verify import (
    DecayFit,
    VerificationReport,
    decay_fit,
    energy_identity_check,
    residual_DHS,
    verify_orbit,
    window_stability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
