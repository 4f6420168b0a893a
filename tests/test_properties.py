"""Algebraic invariants of the polynomial kernel, RationalGF and the genfunc
operators, as properties.

Random small polynomials, rational functions, rational binomial tops and
family parameters come from Hypothesis; the module is skipped when
Hypothesis is not installed.  A rational function is drawn as a numerator
over c * (b0 + b1*z)^e, the one shape RationalGF holds.  Polynomial
arithmetic and the canonical form are compared with a reference over plain
lists of Fractions written below.
"""

from fractions import Fraction
from math import comb, factorial, gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from binsum.combinatorics import alternating_binomial_sum, binomial  # noqa: E402
from binsum.errors import (  # noqa: E402
    NeedsMoreTermsError,
    NotALinearPowerError,
    NotAPowerSeriesError,
)
from binsum.genfunc import (  # noqa: E402
    A_gf,
    B_gf,
    C_gf_stirling,
    binomial_transform_gf,
    paper_gf,
    paper_seed,
    reconstruct_rational,
    recurrence_from_gf,
    recurrence_terms,
)
from binsum.hypergeometric import _series_sum, hyp_terminating  # noqa: E402
from binsum.polynomials import (  # noqa: E402
    Polynomial,
    RationalGF,
    _divide_linear,
    _linear_power,
    poly_gcd,
)
from binsum.sequences import (  # noqa: E402
    _binomial_transform,
    a_double_sum,
    a_double_sum_terms,
    a_from_b_terms,
    a_hypergeom_terms,
    a_single_sum,
    a_single_sum_terms,
    b_direct,
    b_direct_terms,
    b_hypergeom_terms,
    c_direct,
    c_direct_terms,
)

SETTINGS = settings(max_examples=60, deadline=None)

coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polynomial = st.lists(coefficient, max_size=5).map(Polynomial)
nonzero_coefficient = coefficient.filter(lambda c: c != 0)
# a primitive linear factor (b0, b1), z itself included
linear_factor = st.tuples(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)
).filter(lambda b: b[1] != 0 and gcd(*b) == 1)
power = st.integers(min_value=0, max_value=4)


def _over(base, numerator, e, scale):
    """numerator / (scale * (b0 + b1*z)^e) for base = (b0, b1)."""
    return RationalGF(numerator, scale * Polynomial(base) ** e)


any_gf = st.builds(_over, linear_factor, polynomial, power, nonzero_coefficient)
# b0 != 0, so the function has a power series at 0
series_gf = st.builds(
    _over, linear_factor.filter(lambda b: b[0] != 0), polynomial, power, nonzero_coefficient
)


# ------------------------------------------------ Fraction-list reference
# A polynomial is a list of Fraction coefficients, ascending, trimmed.


def _trim(coefficients):
    out = [Fraction(c) for c in coefficients]
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_power(a, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_divmod(a, b):
    remainder, quotient = _trim(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(remainder) >= len(b):
        shift = len(remainder) - len(b)
        factor = remainder[-1] / b[-1]
        quotient[shift] = factor
        remainder = _ref_add(remainder, _ref_mul([0] * shift + [-factor], b))
    return _trim(quotient), remainder


def _ref_gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def _assert_is(p, reference):
    """p is in canonical form and has the reference's coefficients."""
    nums, den = p._nums, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in nums)
    assert gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert list(p.coefficients) == reference
    assert all(type(c) is Fraction for c in p.coefficients)


coefficient_list = st.lists(coefficient, max_size=6)
scalar = st.one_of(st.integers(min_value=-30, max_value=30), coefficient)


@SETTINGS
@given(coefficient_list, coefficient_list, scalar, st.integers(min_value=0, max_value=4))
def test_polynomial_arithmetic_matches_the_reference(a, b, s, e):
    p, q = Polynomial(a), Polynomial(b)
    _assert_is(p, _trim(a))
    cases = [
        (p + q, _ref_add(a, b)),
        (p - q, _ref_add(a, [-c for c in b])),
        (-p, _trim(-c for c in a)),
        (p * q, _ref_mul(a, b)),
        (p * s, _trim(c * s for c in a)),
        (s * p, _trim(c * s for c in a)),
        (p + s, _ref_add(a, [s])),
        (s - p, _ref_add([s], [-c for c in a])),
        (p**e, _ref_power(_trim(a), e)),
    ]
    for got, reference in cases:
        _assert_is(got, reference)


@SETTINGS
@given(
    coefficient_list,
    linear_factor,
    st.integers(min_value=0, max_value=5),
    nonzero_coefficient,
    st.data(),
)
def test_gcd_and_canonical_form_match_the_reference(p, base, e, c, data):
    # P * L^m over c * L^e: the reference Euclid finds L^min(m', e), where
    # m' >= m is the power of L that P * L^m takes
    m = data.draw(st.integers(min_value=0, max_value=e))
    num = _ref_mul(p, _ref_power(base, m))
    den = _trim(c * x for x in _ref_power(base, e))
    common = _ref_gcd(num, den)
    _assert_is(poly_gcd(Polynomial(num), Polynomial(den)), common)
    f = RationalGF(Polynomial(num), Polynomial(den))
    want_num, want_den = _ref_divmod(num, common)[0], _ref_divmod(den, common)[0]
    # the canonical pair is the reduced reference pair times one scalar
    scale = f.denominator.coefficients[-1] / want_den[-1]
    assert list(f.numerator.coefficients) == [x * scale for x in want_num]
    assert list(f.denominator.coefficients) == [x * scale for x in want_den]


@SETTINGS
@given(coefficient_list, coefficient_list, scalar.filter(lambda s: s != 0))
def test_equal_values_compare_and_hash_equal(a, b, s):
    p, q = Polynomial(a), Polynomial(b)
    presentations = [
        Polynomial([Fraction(c) for c in a] + [0, 0]),
        (p * s) * (1 / Fraction(s)),
        (p + q) - q,
        Polynomial.from_value(p.coefficients),
    ]
    for other in presentations:
        assert other == p
        assert hash(other) == hash(p)
    if p.degree <= 0:
        value = p.coefficient(0)
        assert p == value and hash(p) == hash(value)


# An all-int list takes the constructor's int path; it must build the
# canonical form the checked path builds from the same values as Fractions.
@SETTINGS
@given(st.lists(st.integers(min_value=-30, max_value=30), max_size=6), st.integers(0, 3))
@example([], 0)
@example([], 2)
@example([0, -4], 1)
def test_int_list_builds_as_its_fractions_do(values, zeros):
    values = values + [0] * zeros
    p = Polynomial(values)
    _assert_is(p, _trim(values))
    assert p == Polynomial([Fraction(c) for c in values])
    assert p.int_coefficients() == tuple(_trim(values))
    assert all(type(c) is int for c in p.int_coefficients())


@SETTINGS
@given(coefficient_list)
@example([Fraction(1, 2)])
def test_int_coefficients_refuse_a_non_integer(a):
    p = Polynomial(a)
    if all(c.denominator == 1 for c in p.coefficients):
        assert p.int_coefficients() == tuple(int(c) for c in p.coefficients)
    else:
        with pytest.raises(ValueError, match="not an integer"):
            p.int_coefficients()


@SETTINGS
@given(polynomial, linear_factor, power, nonzero_coefficient)
def test_canonical_form_invariants(num, base, e, c):
    base = Polynomial(base)
    den = c * base**e
    f = RationalGF(num, den)
    assert poly_gcd(f.numerator, f.denominator).degree == 0
    coefficients = f.numerator.coefficients + f.denominator.coefficients
    assert all(c.denominator == 1 for c in coefficients)
    assert gcd(*(int(c) for c in coefficients)) == 1
    assert next(c for c in f.denominator.coefficients if c != 0) > 0
    # the same function, presented differently, has the same canonical form
    assert f == RationalGF(num * Fraction(-3, 2), den * Fraction(-3, 2))
    assert f == RationalGF(num * base, den * base)


# a proper function or a polynomial: its transform keeps one linear factor
transformable_gf = any_gf.filter(
    lambda f: f.denominator.degree == 0 or f.numerator.degree < f.denominator.degree
)


@SETTINGS
@given(transformable_gf)
def test_binomial_transform_is_an_involution(f):
    assert binomial_transform_gf(binomial_transform_gf(f)) == f


@SETTINGS
@given(series_gf, st.integers(min_value=1, max_value=25))
def test_recurrence_regenerates_series(f, n):
    assert recurrence_from_gf(f).terms(n) == f.series(n)


def _ref_series(num, den, n):
    """The first n terms of num/den by long division, den[0] != 0."""
    out = []
    for i in range(n):
        rest = num[i] if i < len(num) else 0
        rest -= sum(den[j] * out[i - j] for j in range(1, min(i, len(den) - 1) + 1))
        out.append(rest / den[0])
    return out


# num over c * (b0 + b1*z)^e with b0 != 0, e = 0 included: the binomial
# series against the long division, with an int exactly where it is integral
@SETTINGS
@given(
    st.lists(coefficient, max_size=7),
    linear_factor.filter(lambda b: b[0] != 0),
    st.integers(min_value=0, max_value=6),
    st.one_of(st.integers(min_value=-5, max_value=5).filter(bool), nonzero_coefficient),
    st.integers(min_value=1, max_value=20),
)
def test_series_is_the_long_division(num, base, e, c, n):
    den = _trim(c * x for x in _ref_power(list(base), e))
    terms = RationalGF(num, den).series(n)
    reference = _ref_series(_trim(num), den, n)
    assert terms == reference
    assert [type(t) for t in terms] == [
        int if t.denominator == 1 else Fraction for t in reference
    ]


@SETTINGS
@given(
    st.lists(coefficient, max_size=5).filter(lambda a: a and a[0] != 0),
    st.integers(min_value=1, max_value=5),
    nonzero_coefficient,
)
def test_power_of_z_has_no_series(num, e, c):
    with pytest.raises(NotAPowerSeriesError):
        RationalGF(num, Polynomial.monomial(c, e)).series(3)


def _int_poly(*factors):
    out = [1]
    for factor in factors:
        out = [int(x) for x in _ref_mul(out, list(factor))]
    return out


# two linear factors that are not associates
distinct_pair = st.tuples(linear_factor, linear_factor).filter(
    lambda p: p[0] != p[1] and p[0] != (-p[1][0], -p[1][1])
)


@SETTINGS
@given(distinct_pair, st.integers(min_value=-5, max_value=5).filter(bool))
def test_product_of_two_factors_is_not_a_linear_power(pair, c):
    assert _linear_power([c * x for x in _int_poly(*pair)]) is None


@SETTINGS
@given(
    linear_factor,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(bool),
)
def test_linear_power_is_the_repeated_division(base, e, c):
    nums = [c * x for x in _int_poly(*[base] * e)]
    form = _linear_power(nums)
    if e == 0:
        assert form == (c, (0, 1), 0)
        return
    b0, b1 = base
    # the base is given with b0 > 0, or as z itself
    expected = (0, 1) if b0 == 0 else (b0, b1) if b0 > 0 else (-b0, -b1)
    quotient = nums
    for _ in range(e):
        quotient = _divide_linear(quotient, *expected)
    assert form == (quotient[0], expected, e)


def _order(f):
    return max(f.denominator.degree, f.numerator.degree + 1)


@SETTINGS
@given(series_gf, st.integers(min_value=0, max_value=3))
def test_reconstruct_recovers_function(f, spare):
    # 2 * order terms fix the function; the fit wants one spare
    assert reconstruct_rational(f.series(2 * _order(f) + 1 + spare)) == f


@SETTINGS
@given(st.lists(coefficient, max_size=12))
def test_reconstruct_reproduces_every_term(series):
    # a fit whose denominator has two roots is refused as a whole
    try:
        fit = reconstruct_rational(series)
    except (NeedsMoreTermsError, NotALinearPowerError):
        return
    assert fit.series(len(series)) == series


@SETTINGS
@given(series_gf, st.integers(min_value=0, max_value=3), st.data())
def test_reconstruct_rejects_a_changed_term(f, spare, data):
    # the first 2 * order terms fix f, so after a change at any later index
    # the fit, if there is one, is another function
    series = f.series(2 * _order(f) + 1 + spare)
    index = data.draw(st.integers(min_value=2 * _order(f), max_value=len(series) - 1))
    series[index] += data.draw(coefficient.filter(lambda c: c != 0))
    try:
        fit = reconstruct_rational(series)
    except (NeedsMoreTermsError, NotALinearPowerError):
        return
    assert fit != f
    assert fit.series(len(series)) == series


@SETTINGS
@given(linear_factor, st.tuples(*[st.tuples(polynomial, power, nonzero_coefficient)] * 3))
def test_field_laws(base, parts):
    # over one shared base every sum and product keeps one linear factor
    f, g, h = (_over(base, *part) for part in parts)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == RationalGF(0)
    assert f - f == 0


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


# The alternating-sum kernel against its literal term-by-term definition.
# Steps: 0, the integers up to 6, and p/d with d <= 5 (an integral p/d
# arrives as a Fraction with denominator 1 and takes the Fraction branch).
kernel_index = st.integers(min_value=0, max_value=12)
kernel_step = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.builds(Fraction, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=5)),
)


@SETTINGS
@given(kernel_index, kernel_index, kernel_step, kernel_index)
def test_alternating_sum_is_the_literal_sum(n, offset, step, bottom):
    literal = sum(
        (-1) ** i * binomial(n, i) * binomial(offset + step * i, bottom) for i in range(n + 1)
    )
    value = alternating_binomial_sum(n, offset, step, bottom)
    assert value == literal
    # an int exactly when the value is integral, a Fraction otherwise
    assert type(value) is (int if Fraction(literal).denominator == 1 else Fraction)


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


# Rational q.  For fixed k and index every term is a polynomial in q, so
# what holds at every integer q >= 0 holds at every rational q >= 0.
rational_q = st.builds(
    Fraction, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=7)
)


@SETTINGS
@given(rational_q, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=10))
def test_single_sum_is_the_double_sum_at_rational_q(q, k, m):
    assert a_single_sum(k, q, m) == a_double_sum(k, q, m)


# recurrence_from_gf divides the denominator by d0 in int; each coefficient
# is -d_i / d0, an int exactly when it is integral.
@SETTINGS
@given(st.sampled_from("abc"), st.integers(0, 9), st.one_of(family_q, rational_q))
@example("a", 1, Fraction(1, 2))
@example("b", 2, Fraction(2, 3))
def test_recurrence_coefficients_are_exact_quotients(family, k, q):
    f = paper_gf(family, k, q)
    den = f.denominator.coefficients
    coefficients = recurrence_from_gf(f).coefficients
    if len(den) == 1:
        assert coefficients == (0,)
        return
    assert coefficients == tuple(-Fraction(c) / den[0] for c in den[1:])
    for c in coefficients:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


# b's defining sum, binomial by binomial over one shared denominator,
# against the kernel's independent falling products: q = 0, p < d and an
# integral p/d are drawn too, and each value is an int exactly when integral.
@SETTINGS
@given(rational_q, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=40))
@example(Fraction(0), 3, 12)
@example(Fraction(3, 7), 6, 40)
@example(Fraction(14, 7), 2, 20)
def test_b_direct_is_the_kernel_at_rational_q(q, k, j):
    value = b_direct(k, q, j)
    kernel = alternating_binomial_sum(j, j + k, q, j + k)
    assert value == kernel
    assert type(value) is type(kernel) is (int if Fraction(kernel).denominator == 1 else Fraction)


# Both transform routes of a against their defining sums, written out here:
# the double sum term by term, and the alternating binomial transform of b.
# Each term is an int exactly where it is integral.
@SETTINGS
@given(
    st.integers(min_value=0, max_value=6),
    st.one_of(family_q, rational_q),
    st.integers(min_value=0, max_value=14),
)
def test_prefixes_are_the_literal_sums(k, q, n):
    double = [
        sum(
            (-1) ** (j - i) * comb(m, j) * comb(j, i) * binomial(j + k + q * i, j + k)
            for j in range(m + 1)
            for i in range(j + 1)
        )
        for m in range(n)
    ]
    transform = [
        sum((-1) ** j * comb(m, j) * b_direct(k, q, j) for j in range(m + 1)) for m in range(n)
    ]
    for prefix, literal in ((a_double_sum_terms, double), (a_from_b_terms, transform)):
        terms = prefix(k, q, n)
        assert terms == literal
        assert [type(t) for t in terms] == [
            int if Fraction(t).denominator == 1 else Fraction for t in literal
        ]


# The transform alone, as a difference table, against its literal sum, on
# values shaped like the kernel's and b_direct's: ints, and Fractions only
# where not integral, in lists longer than the prefixes drawn above.
@SETTINGS
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-(10**12), max_value=10**12),
            st.fractions(max_denominator=50).filter(lambda v: v.denominator != 1),
        ),
        max_size=40,
    )
)
def test_binomial_transform_is_the_literal_sum(values):
    terms = _binomial_transform(values)
    literal = [
        sum((-1) ** j * comb(m, j) * Fraction(values[j]) for j in range(m + 1))
        for m in range(len(values))
    ]
    assert terms == literal
    assert [type(t) for t in terms] == [
        int if t.denominator == 1 else Fraction for t in literal
    ]


# The carry behind both defining-sum prefixes holds C(N/d, b) times
# D_b = d^b gcd(b!, d^b), which must be an integer: a prime not dividing d
# never divides its denominator, and a prime dividing d at most
# b v_l(d) + v_l(b!) times, all of it in D_b.
@SETTINGS
@given(
    st.integers(min_value=-60, max_value=200),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=30),
)
@example(-60, 60, 30)
@example(199, 32, 30)
def test_carried_denominator_clears_the_binomial(N, d, b):
    value = Fraction(binomial(Fraction(N, d), b)) * d**b * gcd(factorial(b), d**b)
    assert value.denominator == 1


# The single-sum prefix carries each C(k + (q+1)i, k+m) from m to m+1,
# exactly at integer q and over D_b at q + 1 = p/d, so d with a square or
# with two or three primes is drawn too.
@SETTINGS
@given(
    st.integers(min_value=0, max_value=6),
    st.one_of(st.integers(min_value=0, max_value=5), rational_q),
    st.integers(min_value=0, max_value=40),
)
@example(6, Fraction(7, 8), 40)
@example(5, Fraction(11, 9), 40)
@example(4, Fraction(5, 12), 40)
@example(3, Fraction(31, 30), 40)
def test_single_sum_prefix_is_the_scalar(k, q, n):
    terms = a_single_sum_terms(k, q, n)
    scalar = [a_single_sum(k, q, m) for m in range(n)]
    assert terms == scalar
    assert [type(t) for t in terms] == [type(t) for t in scalar]


# b's defining sum by prefix carries each C(j+k+qi, j+k) from j to j+1,
# exactly at integer q and over D_b at q = p/d.
@SETTINGS
@given(
    st.integers(min_value=0, max_value=6),
    st.one_of(st.integers(min_value=0, max_value=6), rational_q),
    st.integers(min_value=0, max_value=30),
)
@example(6, Fraction(7, 8), 30)
@example(5, Fraction(11, 9), 30)
@example(4, Fraction(5, 12), 30)
@example(3, Fraction(31, 30), 30)
def test_b_prefix_is_the_scalar(k, q, n):
    terms = b_direct_terms(k, q, n)
    scalar = [b_direct(k, q, j) for j in range(n)]
    assert terms == scalar
    assert [type(t) for t in terms] == [type(t) for t in scalar]


# Each series family has one parameter construction, shared by its point
# form and its prefix, so the series prefixes are checked across routes:
# against the carried single sum for a and the carried defining sum for b.
@SETTINGS
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=30),
)
@example(3, 2, 12)
def test_a_series_prefix_is_the_single_sum(k, q, n):
    terms = a_hypergeom_terms(k, q, n)
    single = a_single_sum_terms(k, q, n)
    assert terms == single
    assert [type(t) for t in terms] == [type(t) for t in single]


@SETTINGS
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=30),
)
def test_b_series_prefix_is_the_defining_sum(k, q, n):
    terms = b_hypergeom_terms(k, q, n)
    direct = b_direct_terms(k, q, n)
    assert terms == direct
    assert [type(t) for t in terms] == [type(t) for t in direct]


@SETTINGS
@given(
    st.integers(min_value=0, max_value=6),
    st.one_of(st.integers(min_value=0, max_value=5), rational_q),
    st.integers(min_value=0, max_value=30),
)
@example(4, 0, 30)
@example(3, Fraction(0), 30)
@example(5, Fraction(7, 3), 30)
def test_c_prefix_is_the_scalar(J, q, n):
    terms = c_direct_terms(J, q, n)
    scalar = [c_direct(J, q, i) for i in range(n)]
    assert terms == scalar
    assert [type(t) for t in terms] == [type(t) for t in scalar]


# The kernel reads p/d from a pair (p, d) that need not be in lowest terms,
# so pairs scaled by t sum to what hyp_terminating gives on the reduced
# Fractions, poles and termination included.
series_param = st.builds(
    Fraction, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=4)
)


@SETTINGS
@given(
    st.integers(min_value=0, max_value=8),
    st.lists(series_param, max_size=2),
    st.lists(series_param, max_size=3),
    st.integers(min_value=2, max_value=5),
)
@example(3, [], [Fraction(-1)], 2)
@example(4, [Fraction(-7, 2)], [Fraction(-3, 2)], 3)
def test_series_kernel_reads_unreduced_pairs(order, nums, dens, t):
    nums = [Fraction(-order)] + nums
    total, scale = _series_sum(
        [(t * a.numerator, t * a.denominator) for a in nums],
        [(t * b.numerator, t * b.denominator) for b in dens],
    )
    assert Fraction(total, scale) == hyp_terminating(nums, dens)


@SETTINGS
@given(st.integers(min_value=0, max_value=8), rational_q)
def test_c_construction_is_the_fit_at_rational_q(J, q):
    # order J + 1 needs 2J + 3 terms; two more are spares the fit reproduces
    series = [c_direct(J, q, i) for i in range(2 * J + 5)]
    assert C_gf_stirling(J, q) == reconstruct_rational(series)


# The function built from k+1 seed terms reads nothing past index k, so it
# is checked against the paper's constructions, the fit and the defining
# sums past there.
families = st.sampled_from("abc")


@SETTINGS
@given(families, family_k, family_q)
def test_seeded_function_is_the_construction(family, k, q):
    build = {"a": A_gf, "b": B_gf, "c": C_gf_stirling}[family]
    assert paper_gf(family, k, q) == build(k, q)


@SETTINGS
@given(families, st.integers(min_value=0, max_value=6), rational_q)
def test_seeded_function_is_the_fit_at_rational_q(family, k, q):
    evaluate, _ = paper_seed(family, q)
    assert paper_gf(family, k, q) == reconstruct_rational(evaluate(k, q, 2 * k + 5))


@SETTINGS
@given(families, st.integers(min_value=0, max_value=4), rational_q)
def test_seeded_routes_are_the_defining_sums_at_rational_q(family, k, q):
    # values and types: an integral term is an int on every route
    define = {"a": a_double_sum, "b": b_direct, "c": c_direct}[family]
    direct = [define(k, q, n) for n in range(26)]
    f = paper_gf(family, k, q)
    routes = (f.series(26), recurrence_terms(family, k, q, 26), recurrence_from_gf(f).terms(26))
    for terms in routes:
        assert terms == direct
        assert list(map(type, terms)) == list(map(type, direct))
