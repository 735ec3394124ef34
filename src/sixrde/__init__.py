"""Exact solution theory of the order-six product recurrence

    x_(n+1) = x_(n-5) * x_(n-3) / ( x_(n-1) * (a_n + b_n * x_(n-5) * x_(n-3)) )

over arbitrary-precision rationals: direct iteration, the conserved affine
invariant V_n = 1/(u_n u_(n+2)), general and special-case closed forms, a
well-definedness guard, and an exact verifier for the underlying
shift-symmetry structure.
"""

from .core import (
    CoefficientSequence,
    DegenerateSample,
    IndexBelowSeed,
    InitialConditions,
    OutOfHorizon,
    OutOfRange,
    SingularClosedForm,
    SixrdeError,
    TooShort,
    WrongCase,
    ZeroInitialValue,
    as_rational,
    format_rational,
    parse_rational,
)
from .oracle import (
    InvariantSequence,
    Orbit,
    SingularityCause,
    SingularityReport,
    check_invariant_recurrence,
    invariant_sequence,
    iterate,
)
from .closedform import (
    WellDefinednessReport,
    WellDefViolation,
    term,
    terms,
    unified_exponent,
    unified_magnitude,
    v_closed,
    well_defined,
)
from .specialcases import (
    ConstantCoeffs,
    PeriodicCoeffs2,
    PeriodicCoeffs4,
    term_const_a1,
    term_const_a_neg1,
    term_const_general,
    term_periodic2,
    term_periodic4,
)
from .symmetry import (
    Characteristic,
    LscSample,
    Q1,
    Q2,
    counterfeit_characteristic,
    generator_annihilates_invariant,
    lsc_residual,
    verify_gamma_identities,
    verify_reduced_system,
)

__version__ = "0.1.0"
