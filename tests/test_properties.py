"""Algebraic invariants of RationalGF and the genfunc operators, as properties.

Random small rational functions, rational binomial tops and family
parameters come from Hypothesis; the module is skipped when Hypothesis is not installed.
"""

from fractions import Fraction
from math import factorial, gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from binsum.combinatorics import binomial  # noqa: E402
from binsum.errors import NoRationalFitError  # noqa: E402
from binsum.genfunc import (  # noqa: E402
    binomial_transform_gf,
    reconstruct_rational,
    recurrence_from_gf,
    recurrence_terms,
)
from binsum.polynomials import Polynomial, RationalGF, poly_gcd  # noqa: E402
from binsum.sequences import a_double_sum, a_single_sum, b_direct  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)

coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polynomial = st.lists(coefficient, max_size=5).map(Polynomial)
nonzero_polynomial = polynomial.filter(lambda p: not p.is_zero())
# a nonzero constant coefficient, so the function has a power series at 0
power_series_denominator = st.tuples(
    coefficient.filter(lambda c: c != 0), st.lists(coefficient, max_size=4)
).map(lambda parts: Polynomial([parts[0], *parts[1]]))

any_gf = st.builds(RationalGF, polynomial, nonzero_polynomial)
nonzero_gf = st.builds(RationalGF, nonzero_polynomial, nonzero_polynomial)
series_gf = st.builds(RationalGF, polynomial, power_series_denominator)


@SETTINGS
@given(polynomial, nonzero_polynomial)
def test_canonical_form_invariants(num, den):
    f = RationalGF(num, den)
    assert poly_gcd(f.numerator, f.denominator).degree == 0
    coefficients = f.numerator.coefficients + f.denominator.coefficients
    assert all(c.denominator == 1 for c in coefficients)
    assert gcd(*(int(c) for c in coefficients)) == 1
    assert next(c for c in f.denominator.coefficients if c != 0) > 0
    # the same function, presented differently, has the same canonical form
    assert f == RationalGF(num * Fraction(-3, 2), den * Fraction(-3, 2))
    assert f == RationalGF(num * Polynomial([2, -1]), den * Polynomial([2, -1]))


@SETTINGS
@given(any_gf)
def test_binomial_transform_is_an_involution(f):
    assert binomial_transform_gf(binomial_transform_gf(f)) == f


@SETTINGS
@given(series_gf, st.integers(min_value=1, max_value=25))
def test_recurrence_regenerates_series(f, n):
    assert recurrence_from_gf(f).terms(n) == f.series(n)


@SETTINGS
@given(
    series_gf,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_reconstruct_recovers_function(f, spare, extra_num, extra_den):
    # with degrees above the function's, the system is rank-deficient and the
    # free unknowns are set to zero, yet the fit is the same function
    num_degree = max(f.numerator.degree, 0) + extra_num
    den_degree = f.denominator.degree + extra_den
    series = f.series(num_degree + den_degree + 2 + spare)
    assert reconstruct_rational(series, num_degree, den_degree) == f


@SETTINGS
@given(series_gf, st.integers(min_value=0, max_value=3), st.data())
def test_reconstruct_rejects_a_changed_term(f, spare, data):
    # the first num_degree + den_degree + 1 terms determine a fit of these
    # degrees, so a change at any later index leaves nothing that fits
    num_degree = max(f.numerator.degree, 0)
    den_degree = f.denominator.degree
    series = f.series(num_degree + den_degree + 2 + spare)
    first_free = num_degree + den_degree + 1
    index = data.draw(st.integers(min_value=first_free, max_value=len(series) - 1))
    series[index] += data.draw(coefficient.filter(lambda c: c != 0))
    with pytest.raises(NoRationalFitError):
        reconstruct_rational(series, num_degree, den_degree)


@SETTINGS
@given(any_gf, any_gf, any_gf)
def test_field_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == RationalGF(0)
    assert f - f == 0


@SETTINGS
@given(nonzero_gf)
def test_quotient_by_itself_is_one(f):
    assert f / f == RationalGF(1)
    assert f / f == 1


@SETTINGS
@given(coefficient, polynomial)
def test_equality_accepts_what_arithmetic_accepts(c, p):
    # a constant or a polynomial equals the RationalGF it builds, both ways round
    assert RationalGF(c) == c and c == RationalGF(c)
    assert RationalGF(int(c)) == int(c)
    assert RationalGF(p) == p and p == RationalGF(p)
    assert RationalGF(1, Polynomial([1, 1])) != p  # not a polynomial
    assert RationalGF(c) + 1 != c
    # equal objects hash equal, so they meet as dict keys
    assert hash(RationalGF(c)) == hash(c) == hash(Polynomial([c]))
    assert hash(RationalGF(p)) == hash(p)


rational_top = st.fractions(min_value=-20, max_value=20, max_denominator=6)
bottom = st.integers(min_value=0, max_value=12)


@SETTINGS
@given(rational_top, bottom)
def test_binomial_pascal(x, k):
    assert binomial(x, k) == binomial(x - 1, k) + binomial(x - 1, k - 1)


@SETTINGS
@given(rational_top, bottom)
def test_binomial_reflection(x, k):
    assert binomial(x, k) == (-1) ** k * binomial(k - x - 1, k)


@SETTINGS
@given(rational_top, bottom)
def test_binomial_is_the_falling_factorial(x, k):
    literal = Fraction(1)
    for i in range(k):
        literal *= x - i
    literal /= factorial(k)
    value = binomial(x, k)
    assert value == literal
    # an int exactly when the value is integral, a Fraction otherwise
    assert type(value) is (int if literal.denominator == 1 else Fraction)


# The recurrence route against the defining sums.  The sums at m near 300
# cost milliseconds each, so each example checks a few drawn indices there
# and the last one; the short request covers n_max below the order k+1.
family_k = st.integers(min_value=0, max_value=12)
family_q = st.integers(min_value=0, max_value=8)
short_n = st.integers(min_value=0, max_value=14)
far_indices = st.lists(st.integers(min_value=26, max_value=299), max_size=3)


@SETTINGS
@given(family_k, family_q, short_n, far_indices)
def test_recurrence_route_for_a(k, q, n, far):
    terms = recurrence_terms("a", k, q, 300)
    assert recurrence_terms("a", k, q, n) == terms[:n]
    assert terms[:26] == [a_double_sum(k, q, m) for m in range(26)]
    for m in far + [299]:
        assert terms[m] == a_single_sum(k, q, m)


@SETTINGS
@given(family_k, family_q, short_n, far_indices)
def test_recurrence_route_for_b(k, q, n, far):
    terms = recurrence_terms("b", k, q, 300)
    assert recurrence_terms("b", k, q, n) == terms[:n]
    assert terms[:26] == [b_direct(k, q, j) for j in range(26)]
    for j in far + [299]:
        assert terms[j] == b_direct(k, q, j)
