"""hypergft: generalized hypergeometric evaluation and geometric-function-theory certification.

The package splits into three layers:

* numerics - ``numcore`` (gamma arithmetic under one precision policy),
  ``series`` (direct summation with certified truncation tails),
  ``quadrature`` (adaptive Gauss-Kronrod);
* identities - ``closedforms`` (two-gamma and ladder summation formulas,
  weighted-sum lemmas, integral representations), reconciled against the
  direct series and recorded in the repository typo ledger;
* certification - ``certifier`` (sufficient-condition certificates for the
  starlike/convex/uniformly-convex family) cross-checked by ``oracle``
  (coefficient sums and unit-disc sampling).
"""

from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .certifier import (
    Certificate,
    Verdict,
    certify_function_class,
    certify_operator_mapping,
    hadamard_convolve,
    hypergeometric_coefficients,
)
from .closedforms import (
    LemmaId,
    Section,
    euler_integral,
    five_f4_at_1,
    four_f3_at_1,
    gauss_2f1_at_1,
    lemma_closed_form,
    shpot_srivastava_3f2,
)
from .errors import (
    ConstraintError,
    DivergentError,
    DivisionNearZeroError,
    HypergftError,
    HypothesisError,
    InsufficientOrderError,
    NoConvergenceError,
    NormalizationError,
    PoleError,
    QuadratureError,
    ZeroError,
)
from .families import Family, FamilyParams
from .numcore import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    gamma_ratio,
    log_gamma,
    pochhammer,
    pochhammer_split_residual,
)
from .oracle import (
    CheckKind,
    GridSpec,
    OracleReport,
    coefficient_condition_check,
    disc_sample_check,
    identity_residual,
    worst_case_coefficients,
)
from .series import (
    ConvergenceClass,
    EvalResult,
    PFQParams,
    convergence_class,
    pfq_eval,
    two_f1_neg1,
    weighted_pochhammer_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CheckKind",
    "ClassKind",
    "ClassSpec",
    "ConstraintError",
    "ConvergenceClass",
    "DEFAULT_POLICY",
    "DivergentError",
    "DivisionNearZeroError",
    "EvalResult",
    "Family",
    "FamilyParams",
    "GridSpec",
    "HypergftError",
    "HypothesisError",
    "InsufficientOrderError",
    "LemmaId",
    "NoConvergenceError",
    "NormalizationError",
    "OracleReport",
    "PFQParams",
    "PoleError",
    "PrecisionPolicy",
    "QuadratureError",
    "Section",
    "SourceClass",
    "SourceKind",
    "Verdict",
    "ZeroError",
    "certify_function_class",
    "certify_operator_mapping",
    "coefficient_condition_check",
    "convergence_class",
    "disc_sample_check",
    "euler_integral",
    "five_f4_at_1",
    "four_f3_at_1",
    "gamma_ratio",
    "gauss_2f1_at_1",
    "hadamard_convolve",
    "hypergeometric_coefficients",
    "identity_residual",
    "lemma_closed_form",
    "log_gamma",
    "pfq_eval",
    "pochhammer",
    "pochhammer_split_residual",
    "shpot_srivastava_3f2",
    "two_f1_neg1",
    "weighted_pochhammer_sum",
    "worst_case_coefficients",
]
