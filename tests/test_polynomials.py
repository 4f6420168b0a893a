"""Dense exact polynomials and canonical rational functions."""

import random
from fractions import Fraction

import pytest

from binsum.errors import NotALinearPowerError, NotAPowerSeriesError
from binsum.polynomials import Polynomial, RationalGF, poly_gcd, substitute_cleared


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([0, 0]).degree == -1
        assert not Polynomial([])
        assert Polynomial([0, 1])

    def test_coefficient_out_of_range(self):
        p = Polynomial([3, 5])
        assert p.coefficient(0) == 3
        assert p.coefficient(1) == 5
        assert p.coefficient(7) == 0

    def test_arithmetic(self):
        one_plus = Polynomial([1, 1])
        one_minus = Polynomial([1, -1])
        assert one_plus * one_minus == Polynomial([1, 0, -1])
        assert Polynomial([1, 2]) * 3 == Polynomial([3, 6])
        assert one_plus + one_minus == Polynomial([2])
        assert one_plus - one_plus == Polynomial()
        assert -one_minus == Polynomial([-1, 1])

    def test_pow(self):
        assert Polynomial([1, 1]) ** 4 == Polynomial([1, 4, 6, 4, 1])
        assert Polynomial([2, 1]) ** 0 == Polynomial([1])

    def test_monomial(self):
        assert Polynomial.monomial(3, 2) == Polynomial([0, 0, 3])

    def test_render(self):
        assert Polynomial([1, -3, -1]).render() == "1 - 3*z - z^2"
        assert Polynomial([0, 1]).render("x") == "x"
        assert Polynomial([0, 0, 5]).render() == "5*z^2"
        assert Polynomial().render() == "0"
        assert Polynomial([Fraction(1, 2), 1]).render() == "1/2 + z"


def test_poly_gcd():
    a = Polynomial([1, 0, -1])  # (1-z)(1+z)
    b = Polynomial([1, -2, 1])  # (1-z)^2
    # monic in the leading coefficient: z - 1
    assert poly_gcd(a, b) == Polynomial([-1, 1])
    # the largest power of the denominator's factor that divides a, at most e
    assert poly_gcd(a * Polynomial([1, -1]) ** 3, b) == Polynomial([1, -2, 1])
    assert poly_gcd(Polynomial([1, 1]), b) == Polynomial([1])
    assert poly_gcd(Polynomial([0, 0, 5, 1]), Polynomial([0, 0, 0, 3])) == Polynomial([0, 0, 1])
    # 3z - 2 over 4(2 - 3z)^2: monic z - 2/3, and zero takes the full power
    assert poly_gcd(Polynomial([-2, 3]), 4 * Polynomial([2, -3]) ** 2) == Polynomial(
        [Fraction(-2, 3), 1]
    )
    assert poly_gcd(Polynomial(), b) == Polynomial([1, -2, 1])
    assert poly_gcd(a, Polynomial([7])) == Polynomial([1])


@pytest.mark.parametrize(
    "denominator, text",
    [
        ([1, 0, -1], "1 - z^2"),  # (1 - z)(1 + z)
        ([2, -3, 1], "2 - 3*z + z^2"),  # (1 - z)(2 - z)
        ([0, 1, 1], "z + z^2"),  # z (1 + z)
        ([1, 1, 1], "1 + z + z^2"),  # irreducible
        ([1, 0, 1], "1 + z^2"),  # irreducible, no z term
        ([1, 3, 3, 2], "1 + 3*z + 3*z^2 + 2*z^3"),  # log-derivative at 0 fits (1 + z)^3
    ],
)
def test_other_denominators_rejected(denominator, text):
    message = f"denominator {text} is not a constant times a power of one linear factor"
    with pytest.raises(NotALinearPowerError) as info:
        RationalGF([1], denominator)
    assert str(info.value) == message
    with pytest.raises(NotALinearPowerError):
        poly_gcd(Polynomial([1]), Polynomial(denominator))


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: Polynomial([0.1]), "0.1"),
        (lambda: Polynomial([1, 2.0]), "2.0"),
        (lambda: RationalGF([1], [1, 0.5]), "0.5"),
        (lambda: RationalGF(1, 0.5), "0.5"),
        (lambda: Polynomial([1]) * 0.5, "0.5"),
    ],
)
def test_float_coefficient_is_refused(call, value):
    # Polynomial([0.1]) would hold 3602879701896397/2**55, and
    # RationalGF([1], [1, 0.5]) would render as 2/(2 + z)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"a coefficient must be an int or a Fraction, not the float {value}"


def _substitute_cleared_per_term(p, inner_num, inner_den, total_degree):
    """Reference: each c_i * inner_num^i * inner_den^(total_degree-i) built
    by its own powers and summed term by term."""
    if total_degree < p.degree:
        raise ValueError("total_degree below the polynomial degree")
    result = Polynomial()
    for i, c in enumerate(p.coefficients):
        result = result + c * inner_num**i * inner_den ** (total_degree - i)
    return result


class TestSubstituteCleared:
    @staticmethod
    def _random_poly(rng, max_degree):
        return Polynomial(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(0, max_degree + 1))
        )

    def test_matches_per_term_reference_on_random_grid(self):
        rng = random.Random(4)
        for _ in range(300):
            p = self._random_poly(rng, 8)
            sign = rng.choice([1, -1])
            total_degree = p.degree + rng.randint(0, 3)
            expected = _substitute_cleared_per_term(
                p, Polynomial([0, sign]), Polynomial([1, -1]), total_degree
            )
            got = substitute_cleared(p, sign, total_degree)
            assert got == expected, (p, sign, total_degree)

    def test_zero_polynomial(self):
        for sign in (1, -1):
            for total_degree in range(-1, 4):
                assert substitute_cleared(Polynomial(), sign, total_degree) == Polynomial()

    def test_total_degree_below_degree_rejected(self):
        p = Polynomial([1, 2, 3])
        with pytest.raises(ValueError, match="total_degree below the polynomial degree"):
            substitute_cleared(p, 1, 1)


class TestRationalGFCanonical:
    def test_sign_normalization(self):
        # -1/(-1+2z) and 1/(1-2z) are the same object
        assert RationalGF([-1], [-1, 2]) == RationalGF([1], [1, -2])

    def test_content_cleared(self):
        f = RationalGF([Fraction(1, 2), Fraction(1, 2)], [1])
        assert f.numerator == Polynomial([1, 1])
        assert f.denominator == Polynomial([2])

    def test_common_factor_removed(self):
        f = RationalGF([1, 0, -1], [1, -1])  # (1-z^2)/(1-z)
        assert f == RationalGF([1, 1], [1])

    def test_integer_primitive(self):
        f = RationalGF([2, 2], [4])
        assert f.numerator == Polynomial([1, 1])
        assert f.denominator == Polynomial([2])

    def test_hashable(self):
        assert len({RationalGF([1], [1, 2]), RationalGF([1], [1, 3])}) == 2
        # equivalent presentations collapse to one canonical value
        assert len({RationalGF([1], [1, 2]), RationalGF([2], [2, 4])}) == 1
        assert len({RationalGF([1], [1, 2]), RationalGF([-1], [-1, -2])}) == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalGF([1], [0])


class TestRationalGFSeries:
    def test_geometric(self):
        assert RationalGF([1], [1, 2]).series(4) == [1, -2, 4, -8]
        assert RationalGF([1], [1, -1]).series(3) == [1, 1, 1]

    def test_table_row(self):
        f = RationalGF([1, -1], Polynomial([1, 2]) ** 2)
        assert f.series(5) == [1, -5, 16, -44, 112]

    def test_rational_coefficients(self):
        f = RationalGF([8, 1], 2 * Polynomial([2, 1]) ** 2)
        assert f.series(4) == [1, Fraction(-7, 8), Fraction(5, 8), Fraction(-13, 32)]

    def test_no_expansion_at_pole(self):
        with pytest.raises(NotAPowerSeriesError):
            RationalGF([1], [0, 1]).series(3)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            RationalGF([1], [1, 1]).series(0)


class TestRationalGFArithmetic:
    def test_add(self):
        half = RationalGF([1], [2])
        assert half + half == RationalGF([1], [1])

    def test_mul_div(self):
        f = RationalGF([1], [1, -1])
        g = RationalGF([1, -1], [1])
        assert f * g == RationalGF([1], [1])
        # division is multiplication by the reciprocal, built by hand
        assert f * RationalGF(f.denominator, f.numerator) == RationalGF([1], [1])

    def test_mul_by_polynomial(self):
        f = RationalGF([1], [1, -2])
        assert f * Polynomial([0, 1]) == RationalGF([0, 1], [1, -2])

    def test_sub_neg(self):
        f = RationalGF([3], [1, 1])
        assert f - f == RationalGF([0], [1])
        assert -f == RationalGF([-3], [1, 1])


class TestRender:
    def test_plain_denominator(self):
        assert RationalGF([1], [1, 3]).render() == "1/(1 + 3*z)"

    def test_power_denominator(self):
        f = RationalGF([1, -3, -1], Polynomial([1, 2]) ** 3)
        assert f.render() == "(1 - 3*z - z^2)/(1 + 2*z)^3"

    def test_scaled_power_denominator(self):
        f = RationalGF([8, 1], 2 * Polynomial([2, 1]) ** 2)
        assert f.render() == "(8 + z)/(2*(2 + z)^2)"

    def test_polynomial_only(self):
        assert RationalGF([1, 1], [1]).render() == "1 + z"

    def test_alternate_variable(self):
        assert RationalGF([1, 2], [1, -1]).render("x") == "(1 + 2*x)/(1 - x)"

    def test_non_power_denominator_parenthesized(self):
        # a first power is written out, scale included
        f = RationalGF([1], [2, 6])
        assert f.render() == "1/(2 + 6*z)"

    def test_power_of_z_written_out(self):
        assert RationalGF([1, 1], [0, 0, 2]).render() == "(1 + z)/(2*z^2)"
