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

__version__ = "0.1.0"

# the b-file reader and the verification suites load on first use (PEP 562),
# so importing the package for seq, gf or recur does not compile them; a name
# is looked up afresh each time, so a patched module attribute is what is seen
_LAZY = {
    "OeisMapping": "oeis",
    "compare_terms": "oeis",
    "fetch_bfile": "oeis",
    "parse_bfile": "oeis",
    "VerificationReport": "verify",
    "run_suite": "verify",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
