"""Sequence evaluators: frozen values, cross-route grids, standalone identities."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from binsum.combinatorics import binomial
from binsum.errors import UnsupportedParameterError
from binsum.genfunc import paper_gf, recurrence_terms
from binsum.sequences import (
    _carried_sums,
    a_double_sum,
    a_double_sum_terms,
    a_from_b,
    a_from_b_terms,
    a_hypergeom,
    a_single_sum,
    a_single_sum_terms,
    as_integer,
    b_direct,
    b_direct_terms,
    b_hypergeom,
    b_k1_closed,
    beta_integral,
    c_direct,
    power_via_stirling,
    zero_sum_identity,
)


class TestFrozenValues:
    """Pinned single values; each was computed by an independent route first."""

    def test_a_double_sum(self):
        assert a_double_sum(3, 4, 0) == 1
        assert a_double_sum(1, 2, 1) == 6
        assert a_double_sum(0, 1, 5) == 32
        assert a_double_sum(1, 2, 2) == 27

    def test_a_single_sum(self):
        assert a_single_sum(0, 1, 3) == 8
        assert a_single_sum(2, 3, 1) == 20
        for k, q in ((0, 0), (2, 5), (4, 1)):
            assert a_single_sum(k, q, 0) == 1

    def test_a_from_b(self):
        assert a_from_b(0, 2, 2) == 9
        assert a_from_b(3, 3, 0) == 1
        assert a_from_b(1, 2, 3) == 108

    def test_b_direct(self):
        assert b_direct(0, 3, 2) == 9
        assert b_direct(1, 2, 3) == -44
        assert b_direct(2, 3, 1) == -19
        assert b_direct(1, Fraction(1, 2), 1) == Fraction(-7, 8)

    def test_b_k1_closed(self):
        assert b_k1_closed(1, 3) == -4
        assert b_k1_closed(2, 2) == 6
        assert b_k1_closed(0, 5) == -1

    def test_c_direct(self):
        assert c_direct(2, 3, 2) == 28
        assert c_direct(5, 7, 0) == 1
        assert c_direct(1, 4, 3) == 13

    def test_a_hypergeom(self):
        assert a_hypergeom(0, 1, 2) == 4
        assert a_hypergeom(3, 2, 0) == 1
        assert a_hypergeom(2, 2, 3) == a_single_sum(2, 2, 3)

    def test_b_hypergeom(self):
        assert b_hypergeom(0, 2, 2) == 4
        assert b_hypergeom(1, 3, 2) == 45
        assert b_hypergeom(4, 2, 0) == 1


def test_a_routes_agree_small_grid():
    # the full 0..5 x 0..25 triangle runs in the acceptance suite
    for k in range(4):
        for q in range(4):
            for m in range(13):
                want = a_double_sum(k, q, m)
                assert a_single_sum(k, q, m) == want
                assert a_from_b(k, q, m) == want
                assert a_hypergeom(k, q, m) == want


def test_swapped_iteration_order():
    """Summing i first then j leaves the double sum unchanged."""
    def swapped(k, q, m):
        total = 0
        for i in range(m + 1):
            for j in range(i, m + 1):
                total += (-1) ** (j - i) * binomial(m, j) * binomial(j, i) * binomial(
                    j + k + q * i, j + k
                )
        return total

    for k in range(4):
        for q in range(4):
            for m in range(13):
                assert swapped(k, q, m) == a_double_sum(k, q, m)


# verify compares the series routes at k, q <= 5 with m <= 25 and j <= 20;
# their parameters are ints and one Fraction each, so the two tests below
# check them against the defining sums further out
def test_b_routes_agree():
    for q in range(1, 8):
        for k in range(8):
            for j in range(31):
                assert b_hypergeom(k, q, j) == b_direct(k, q, j), (k, q, j)


def test_a_series_route_agrees_past_the_verify_grid():
    for k in range(8):
        for q in range(8):
            for m in range(31):
                assert a_hypergeom(k, q, m) == a_single_sum(k, q, m), (k, q, m)


# The integer carry holds each term C(m, i) C(t, k+m) whole and steps it by
# m (t-stepped factor) / ((m-i)(k+m)); the property tests stop at 40 terms,
# so both rises are checked here against the literal sum out to 60
@pytest.mark.parametrize("rise", [0, 1])
def test_integer_carry_is_the_literal_sum(rise):
    n = 60
    for k in range(7):
        for step in range(7):
            literal = [
                sum(
                    (-1) ** i * math.comb(m, i) * math.comb(k + rise * m + step * i, k + m)
                    for i in range(m + 1)
                )
                for m in range(n)
            ]
            sums = _carried_sums(k, step, n, rise)
            assert sums == literal, (k, step)
            assert all(type(s) is int for s in sums)


def test_b_k0_is_alternating_geometric():
    for q in list(range(7)) + [Fraction(1, 2), Fraction(3, 2)]:
        for j in range(31):
            assert b_direct(0, q, j) == (-Fraction(q)) ** j


def test_b_q1_closed_form_and_recurrence():
    for k in range(9):
        for j in range(26):
            value = b_direct(k, 1, j)
            assert value == binomial(-k - 1, j)
            assert value == b_k1_closed(k, j)
            # first-order contiguous relation
            assert (j + 1) * b_direct(k, 1, j + 1) + (k + j + 1) * value == 0


def test_rational_q_values_are_fractions():
    row = [b_direct(1, Fraction(1, 2), j) for j in range(5)]
    assert row == [1, Fraction(-7, 8), Fraction(5, 8), Fraction(-13, 32), Fraction(1, 4)]


def test_zero_sum_identity():
    assert zero_sum_identity(0, 5) == 0
    assert zero_sum_identity(3, 2) == 0
    assert zero_sum_identity(7, 4) == 0
    for j in range(21):
        for q in range(1, 7):
            assert zero_sum_identity(j, q) == 0


class TestBetaIntegral:
    def test_examples(self):
        assert beta_integral(0, 2) == Fraction(3, 2)
        assert beta_integral(1, 2) == Fraction(17, 12)
        assert beta_integral(0, 1) == 1

    def test_against_direct_integration(self):
        # expand t^j (1 + t + ... + t^(q-1))^(j+1) and integrate monomials
        for j in range(9):
            for q in range(1, 5):
                coeffs = [1]
                block = [1] * q
                for _ in range(j + 1):
                    new = [0] * (len(coeffs) + q - 1)
                    for d1, c1 in enumerate(coeffs):
                        for d2, c2 in enumerate(block):
                            new[d1 + d2] += c1 * c2
                    coeffs = new
                direct = sum(
                    Fraction(c, d + j + 1) for d, c in enumerate(coeffs)
                )
                assert beta_integral(j, q) == direct

    def test_positive_with_bounded_denominator(self):
        # largest single denominator in the expansion is q*(j+1)
        for j in range(9):
            for q in range(1, 5):
                value = beta_integral(j, q)
                assert value > 0
                assert math.lcm(*range(1, q * (j + 1) + 1)) % value.denominator == 0


def test_power_via_stirling():
    assert power_via_stirling(3, 2) == 9
    assert power_via_stirling(6, 0) == 1
    assert power_via_stirling(2, 5) == 32
    for base in range(13):
        for n in range(13):
            assert power_via_stirling(base, n) == base**n


def test_as_integer():
    assert as_integer(a_double_sum(2, 3, 4)) == a_double_sum(2, 3, 4)
    assert isinstance(as_integer(Fraction(14, 2)), int)
    with pytest.raises(ValueError):
        as_integer(Fraction(1, 2))


class TestDomainErrors:
    def test_negative_indices(self):
        with pytest.raises(ValueError):
            a_double_sum(-1, 2, 3)
        with pytest.raises(ValueError):
            b_direct(0, 2, -1)
        with pytest.raises(ValueError):
            c_direct(2, 3, -1)

    def test_negative_q(self):
        with pytest.raises(ValueError):
            a_single_sum(0, -2, 3)
        with pytest.raises(ValueError):
            b_direct(0, Fraction(-1, 2), 3)
        # c takes any rational q, so the message must not ask for an integer
        with pytest.raises(ValueError, match="^q must be nonnegative, got -1$"):
            c_direct(2, -1, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda q: c_direct(2, q, 3),
            lambda q: b_direct(1, q, 3),
            lambda q: a_double_sum(1, q, 3),
            lambda q: a_hypergeom(1, q, 3),
            lambda q: paper_gf("b", 1, q),
            lambda q: recurrence_terms("a", 1, q, 4),
        ],
    )
    @pytest.mark.parametrize("q", [0.1, 2.0])
    def test_float_q_is_refused(self, call, q):
        # a binary float is not the rational it prints as: 0.1 would be
        # computed as 3602879701896397/2**55, so no float is taken, even 2.0
        with pytest.raises(ValueError, match=rf"^q must be an int or a Fraction, not the float {q}$"):
            call(q)

    @pytest.mark.parametrize(
        "call",
        [
            lambda q: b_direct(1, q, 3),
            lambda q: c_direct(2, q, 2),
            lambda q: a_single_sum(1, q, 3),
        ],
    )
    @pytest.mark.parametrize("q", ["1/2", " 3 ", Decimal("0.5")])
    def test_non_rational_q_is_refused(self, call, q):
        # "1/2" once went through Fraction("1/2") and b_direct gave -13/32
        with pytest.raises(ValueError) as info:
            call(q)
        assert str(info.value) == f"q must be an int or a Fraction, not a {type(q).__name__}"

    @pytest.mark.parametrize(
        "terms, scalar",
        [
            (a_double_sum_terms, a_double_sum),
            (a_from_b_terms, a_from_b),
            (a_single_sum_terms, a_single_sum),
            (b_direct_terms, b_direct),
        ],
    )
    def test_prefix_takes_the_scalar_errors(self, terms, scalar):
        assert terms(3, 2, 0) == []
        with pytest.raises(ValueError, match="^n must be a nonnegative integer, got -1$"):
            terms(1, 2, -1)
        for k, q in ((-1, 2), (1, Fraction(-1, 2)), (1, 0.5)):
            with pytest.raises(ValueError) as want:
                scalar(k, q, 3)
            # refused before the first term, so the empty prefix is too
            for n in (0, 3):
                with pytest.raises(ValueError) as got:
                    terms(k, q, n)
                assert str(got.value) == str(want.value)
                assert "\n" not in str(got.value)

    def test_hypergeometric_routes_need_integer_q(self):
        with pytest.raises(UnsupportedParameterError):
            a_hypergeom(1, Fraction(1, 2), 3)
        with pytest.raises(UnsupportedParameterError):
            b_hypergeom(1, Fraction(3, 2), 2)

    def test_b_hypergeom_needs_positive_q(self):
        with pytest.raises(ValueError):
            b_hypergeom(1, 0, 2)

    def test_zero_sum_needs_positive_q(self):
        with pytest.raises(ValueError):
            zero_sum_identity(3, 0)
