"""Exact arithmetic for Drinfeld modules over finite fields.

Builds finite-field towers, twisted polynomial rings and Drinfeld
modules, computes torsion modules by linear algebra, and evaluates the
explicit pairing on torsion tuples in arbitrary rank, with exhaustive
verification suites for every identity involved.
"""

from .errors import (
    ArityMismatch,
    ConfigurationTooLarge,
    DivisionByZero,
    DrinfeldError,
    InseparableTorsion,
    InvalidDegree,
    LevelMismatch,
    NonMonic,
    NonPrimeCharacteristic,
    NotInSubfield,
    NotTorsionPoint,
    PointNotInModule,
    RationalityFailure,
    ReducibleModulus,
    SearchBudget,
    SearchCapExceeded,
    WrongLength,
    ZeroLeadingCoefficient,
)
from .fields import (
    FieldCtx,
    FieldElement,
    as_vector,
    determinant,
    dim_between,
    extend,
    field_from_descriptor,
    from_vector,
    kernel,
    make_field,
    solve,
)
from .polynomials import (
    MultiPoly,
    UniPoly,
    all_monic,
    normal_form,
    poly_gcd,
    poly_xgcd,
    roots_in_field,
    splitting_level,
)
from .core import (
    DrinfeldModule,
    ResidueRing,
    SkewPoly,
    TorsionModule,
    fq_span,
    galois_action_matrix,
    operator_kernel,
    torsion,
)
from .pairing import (
    FaPoly,
    PairingEvaluator,
    QPowerPoly,
    chain_sum_over_roots,
    f_chain_sum,
    f_recursive,
    f_root_order_variant,
    f_rootfree,
    moore_eval,
    moore_poly,
    weil_evaluate,
    weil_polynomial,
)
from .verify import (
    BundleEntry,
    CheckResult,
    VerificationConfig,
    VerificationReport,
    default_bundle,
    reevaluate,
    run_suites,
    verify_compatibility,
    verify_congruences,
    verify_det_representation,
    verify_f_identities,
    verify_leading_term,
    verify_pairing_properties,
)

__version__ = "0.1.0"
