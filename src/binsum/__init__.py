"""Exact binomial-sum sequence families and their rational generating functions.

Three related integer-sequence families are evaluated by several
independent routes (nested binomial sums, single sums, terminating
series), packaged as rational generating functions, reduced to linear
recurrences with constant coefficients, and cross-checked against
reference tables and OEIS b-files.  Everything runs over exact integer
and rational arithmetic; there is not a float in sight.
"""

from .combinatorics import (
    binomial,
    factorial,
    multinomial,
    normalize_scalar,
    pochhammer,
    stirling1_signed,
    stirling2,
)
from .errors import (
    BFileParseError,
    FixtureMissingError,
    NeedsMoreTermsError,
    NoRationalFitError,
    NonTerminatingSeriesError,
    NotALinearPowerError,
    NotAPowerSeriesError,
    TransportError,
    UnsupportedParameterError,
)
from .genfunc import (
    A_gf,
    B_gf,
    C2_closed_form,
    C_gf_stirling,
    CFiniteRecurrence,
    binomial_transform_gf,
    omega_poly,
    paper_gf,
    power_sum_gf,
    reconstruct_rational,
    recurrence_from_gf,
    recurrence_terms,
)
from .hypergeometric import hyp_terminating, termination_order
from .oeis import (
    OeisMapping,
    compare_terms,
    fetch_bfile,
    parse_bfile,
)
from .polynomials import Polynomial, RationalGF
from .sequences import (
    a_double_sum,
    a_double_sum_terms,
    a_from_b,
    a_from_b_terms,
    a_hypergeom,
    a_single_sum,
    a_single_sum_terms,
    b_direct,
    b_direct_terms,
    b_hypergeom,
    b_k1_closed,
    beta_integral,
    c_direct,
    power_via_stirling,
    zero_sum_identity,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "A_gf",
    "B_gf",
    "BFileParseError",
    "C2_closed_form",
    "C_gf_stirling",
    "CFiniteRecurrence",
    "FixtureMissingError",
    "NeedsMoreTermsError",
    "NoRationalFitError",
    "NonTerminatingSeriesError",
    "NotALinearPowerError",
    "NotAPowerSeriesError",
    "OeisMapping",
    "Polynomial",
    "RationalGF",
    "TransportError",
    "UnsupportedParameterError",
    "VerificationReport",
    "a_double_sum",
    "a_double_sum_terms",
    "a_from_b",
    "a_from_b_terms",
    "a_hypergeom",
    "a_single_sum",
    "a_single_sum_terms",
    "b_direct",
    "b_direct_terms",
    "b_hypergeom",
    "b_k1_closed",
    "beta_integral",
    "binomial",
    "binomial_transform_gf",
    "c_direct",
    "compare_terms",
    "factorial",
    "fetch_bfile",
    "hyp_terminating",
    "multinomial",
    "normalize_scalar",
    "omega_poly",
    "paper_gf",
    "parse_bfile",
    "pochhammer",
    "power_sum_gf",
    "power_via_stirling",
    "reconstruct_rational",
    "recurrence_from_gf",
    "recurrence_terms",
    "run_suite",
    "stirling1_signed",
    "stirling2",
    "termination_order",
    "zero_sum_identity",
]
