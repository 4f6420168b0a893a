"""Terminating hypergeometric series evaluation."""

import random
from fractions import Fraction

import pytest

from binsum.errors import NonTerminatingSeriesError
from binsum.hypergeometric import hyp_terminating, termination_order
from binsum.combinatorics import factorial, pochhammer


def hyp_by_pochhammer(nums, dens):
    """Reference sum at unit argument: every term rebuilt from its Pochhammer
    products, a term with a vanishing denominator product counting as zero."""
    total = Fraction(0)
    for i in range(termination_order(nums) + 1):
        den_product = Fraction(1)
        for b in dens:
            den_product *= pochhammer(Fraction(b), i)
        if den_product == 0:
            continue
        num_product = Fraction(1)
        for a in nums:
            num_product *= pochhammer(Fraction(a), i)
        total += num_product / (den_product * factorial(i))
    return total


def outcome(evaluate, *args):
    """The value, or the exception type."""
    try:
        return "value", evaluate(*args)
    except NonTerminatingSeriesError:
        return NonTerminatingSeriesError


def test_termination_order_single():
    assert termination_order([-4]) == 4
    assert termination_order([0]) == 0


def test_termination_order_most_negative_wins():
    # the series formally runs to the most negative parameter; terms past
    # the smaller magnitude are zero anyway
    assert termination_order([-2, -5]) == 5
    assert termination_order([-5, Fraction(1, 2), -1]) == 5


def test_termination_order_requires_nonpositive_integer():
    with pytest.raises(NonTerminatingSeriesError):
        termination_order([Fraction(1, 2), 3])
    with pytest.raises(NonTerminatingSeriesError):
        termination_order([])
    with pytest.raises(NonTerminatingSeriesError):
        termination_order([Fraction(-1, 2)])


def test_2f1_collapses_to_binomial_power():
    # 2F1(-2, 1; 1; 1) sums (1-z)^2 at z=1
    assert hyp_terminating([-2, 1], [1]) == 0


def test_2f1_three_term_sum():
    assert hyp_terminating([-2, 1], [3]) == Fraction(1, 2)


def test_1f0_power():
    assert hyp_terminating([-3], []) == 0


def test_chu_vandermonde():
    # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
    for n in range(8):
        for b in (1, 2, Fraction(1, 2), Fraction(-3, 2)):
            for c in (Fraction(7, 2), 5, Fraction(13, 3)):
                lhs = hyp_terminating([-n, b], [c])
                rhs = Fraction(pochhammer(c - b, n), pochhammer(c, n))
                assert lhs == rhs, (n, b, c)


def test_regularized_mode_zeroes_pole_terms():
    # i = 0, 1 contribute 1 and 3; later terms hit the zero denominator
    assert hyp_terminating([-3, 1], [-1]) == 4


def test_zero_denominator_beats_zero_numerator():
    # at i = 3 numerator and denominator Pochhammers both vanish; the
    # denominator check comes first, so the 0/0 term contributes 0
    # (terms 1, -3, 3, then nothing)
    assert hyp_terminating([-2, -3], [-2]) == 1


@pytest.mark.parametrize(
    "nums, dens, value",
    [
        ([-2, 0.1], [1], "0.1"),
        ([-2.0, 1], [1], "-2.0"),
        ([-2, 1], [0.5], "0.5"),
    ],
)
def test_float_parameter_is_refused(nums, dens, value):
    # with 0.1 as its dyadic value the first case summed to a fraction over 2^111
    with pytest.raises(ValueError) as info:
        hyp_terminating(nums, dens)
    assert str(info.value) == (
        f"a series parameter must be an int or a Fraction, not the float {value}"
    )


@pytest.mark.parametrize(
    "param, complaint",
    [
        (-2.0, "not the float -2.0"),
        (0.5, "not the float 0.5"),
        ("-3", "not a str"),
        (None, "not a NoneType"),
        ([-3], "not a list"),
    ],
)
def test_non_rational_parameter_is_refused(param, complaint):
    # termination_order once read -2.0 as the order 2 and "-3" as 3; no
    # call may end in an AttributeError either
    calls = (
        lambda: termination_order([param, Fraction(1, 2)]),
        lambda: hyp_terminating([-2, param], []),
        lambda: hyp_terminating([-2], [param]),
    )
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"a series parameter must be an int or a Fraction, {complaint}"


def test_int_and_integral_fraction_parameters_agree():
    # parameters are read through .numerator and .denominator, never rebuilt
    assert termination_order([-3]) == termination_order([Fraction(-3)]) == 3
    for nums, dens in (
        ([-3, Fraction(1, 2)], [Fraction(7, 2)]),
        ([-3, 2], [5]),
        ([-3, 1], [-1]),
        ([-4, Fraction(5, 3)], [Fraction(-7, 3), 2]),
    ):
        want = hyp_terminating(nums, dens)
        as_fractions = hyp_terminating([Fraction(a) for a in nums], [Fraction(b) for b in dens])
        assert as_fractions == want
        assert type(as_fractions) is type(want)


def test_matches_pochhammer_reference_on_random_grid():
    rng = random.Random(20230417)

    def parameter(nonpositive_share):
        if rng.random() < nonpositive_share:
            return rng.randint(-7, 0)
        return Fraction(rng.randint(-15, 15), rng.randint(1, 6))

    for _ in range(250):
        nums = [parameter(0.5) for _ in range(rng.randint(1, 4))]
        dens = [parameter(0.3) for _ in range(rng.randint(0, 3))]
        expected = outcome(hyp_by_pochhammer, nums, dens)
        assert outcome(hyp_terminating, nums, dens) == expected, (nums, dens)
