"""Unit tests for the exact combinatorial kernels.

Oracles here are brute force: set-partition enumeration and falling-factorial
expansion by convolution.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from binsum import combinatorics
from binsum.combinatorics import (
    alternating_binomial_sum,
    binomial,
    factorial,
    multinomial,
    normalize_scalar,
    pochhammer,
    stirling1_signed,
    stirling2,
)
from binsum.genfunc import reconstruct_rational
from binsum.polynomials import Polynomial


def count_set_partitions(n, k):
    """Partitions of an n-set into exactly k nonempty blocks, by recursion."""
    if n == 0:
        return 1 if k == 0 else 0
    if k <= 0:
        return 0
    # last element: own block, or joins one of k blocks
    return count_set_partitions(n - 1, k - 1) + k * count_set_partitions(n - 1, k)


def falling_factorial_coefficients(n):
    """Coefficients of z(z-1)...(z-n+1) by direct convolution."""
    coeffs = [1]
    for i in range(n):
        # multiply by (z - i)
        new = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] += -i * c
        coeffs = new
    return coeffs


class TestFactorial:
    def test_examples(self):
        assert factorial(0) == 1
        assert factorial(5) == 120
        assert factorial(12) == 479001600

    def test_matches_math(self):
        for n in range(21):
            assert factorial(n) == math.factorial(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_examples(self):
        assert binomial(7, 3) == 35
        assert binomial(2, 5) == 0
        assert binomial(-3, 2) == 6
        assert binomial(Fraction(3, 2), 2) == Fraction(3, 8)

    def test_negative_bottom_is_zero(self):
        assert binomial(7, -1) == 0
        assert binomial(Fraction(1, 2), -3) == 0
        assert binomial(-4, -2) == 0

    def test_matches_comb_on_integers(self):
        for n in range(31):
            for k in range(n + 2):
                expected = math.comb(n, k) if k <= n else 0
                assert binomial(n, k) == expected

    def test_integer_tops_match_falling_factorial(self):
        # written out here so the check does not rest on math.comb, which
        # binomial itself uses for integer tops
        for top in range(-40, 41):
            for bottom in range(-2, 46):
                falling = 1
                for i in range(bottom):
                    falling *= top - i
                expected = falling // math.factorial(bottom) if bottom >= 0 else 0
                result = binomial(top, bottom)
                assert type(result) is int, (top, bottom)
                assert result == expected, (top, bottom)

    def test_integer_results_are_ints(self):
        assert isinstance(binomial(10, 4), int)
        assert isinstance(binomial(-3, 2), int)

    def test_symmetry(self):
        for n in range(41):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    def test_pascal(self):
        for n in range(41):
            for k in range(n + 2):
                assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)

    def test_rational_top(self):
        # (1/2 choose 3) = (1/2)(-1/2)(-3/2)/6
        assert binomial(Fraction(1, 2), 3) == Fraction(1, 16)
        assert binomial(Fraction(-5, 2), 2) == Fraction(35, 8)


class TestAlternatingBinomialSum:
    def test_examples(self):
        # b(1, 2; 3) = -44 and b(1, 1/2; 1) = -7/8, as sums over i <= j of
        # (-1)^i C(j, i) C(j+k+q*i, j+k)
        assert alternating_binomial_sum(3, 4, 2, 4) == -44
        assert alternating_binomial_sum(1, 2, Fraction(1, 2), 2) == Fraction(-7, 8)
        # n + 1 > bottom forward differences of a degree-bottom polynomial in i
        assert alternating_binomial_sum(6, 5, 3, 5) == 0
        assert alternating_binomial_sum(6, 5, Fraction(7, 3), 5) == 0

    def test_step_zero_leaves_only_n_zero(self):
        for n in range(6):
            for offset in range(8):
                for bottom in range(10):
                    want = math.comb(offset, bottom) if n == 0 else 0
                    assert alternating_binomial_sum(n, offset, 0, bottom) == want
                    assert alternating_binomial_sum(n, offset, Fraction(0), bottom) == want

    def test_n_th_difference_of_the_leading_term(self):
        # with bottom = n only the top's i^n term survives n differences:
        # (-1)^n n! (step^n / n!) = (-step)^n, an int at an integral step
        for n in range(8):
            for step in (1, 2, 5, Fraction(1, 2), Fraction(7, 3), Fraction(6, 3)):
                value, want = alternating_binomial_sum(n, 3, step, n), (-Fraction(step)) ** n
                assert value == want
                assert type(value) is (int if want.denominator == 1 else Fraction)

    def test_negative_arguments_rejected(self):
        for args in ((-1, 0, 1, 0), (2, -1, 1, 0), (2, 0, 1, -1), (2, 0, Fraction(1, 2), -1)):
            with pytest.raises(ValueError):
                alternating_binomial_sum(*args)


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: binomial(0.5, 2), "a binomial top", "0.5"),
        (lambda: binomial(2.0, 2), "a binomial top", "2.0"),
        (lambda: alternating_binomial_sum(3, 1, 0.5, 2), "step", "0.5"),
        (lambda: pochhammer(0.5, 2), "a Pochhammer base", "0.5"),
        (lambda: reconstruct_rational([1, 0.5, 0.25, 0.125, 0.0625]), "a series term", "0.5"),
        (lambda: reconstruct_rational([0.1 * 3**n for n in range(7)]), "a series term", "0.1"),
    ],
)
def test_float_is_refused(call, name, value):
    # Fraction(0.5) happens to be exact, but Fraction(0.1) is a dyadic, so
    # no float is taken; the error is one line, not an AttributeError.  A
    # series of 0.1 * 3^n would be fitted by its dyadic roundings at order 4
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{name} must be an int or a Fraction, not the float {value}"


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda value: binomial(value, 2), "a binomial top"),
        (lambda value: alternating_binomial_sum(2, 1, value, 1), "step"),
        (lambda value: pochhammer(value, 2), "a Pochhammer base"),
        (lambda value: reconstruct_rational([1, value, 1, 1, 1]), "a series term"),
        (lambda value: Polynomial([1]) * value, "a coefficient"),
    ],
)
@pytest.mark.parametrize("value", ["5", "1/2", Decimal("0.5")])
def test_non_rational_scalar_is_refused(call, name, value):
    # a str once ended in an AttributeError or a TypeError, or was parsed;
    # none is parsed now
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an int or a Fraction, not a {type(value).__name__}"


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
        assert pochhammer(Fraction(7, 3), 0) == 1
        assert pochhammer(17, 0) == 1
        assert pochhammer(-2, 4) == 0

    def test_product_rule(self):
        values = [Fraction(n, d) for n in range(-10, 11) for d in (1, 2, 3, 7)]
        for a in values[::5]:
            for m in range(11):
                for n in range(11):
                    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    def test_multiplication_formula(self):
        # (a)_{qr} = q^{qr} prod_{l<q} ((a+l)/q)_r
        for a in (Fraction(1, 2), Fraction(-3, 2), 2, Fraction(7, 3)):
            for q in range(1, 6):
                for r in range(7):
                    lhs = pochhammer(Fraction(a), q * r)
                    rhs = Fraction(q) ** (q * r)
                    for l in range(q):
                        rhs *= pochhammer(Fraction(Fraction(a) + l, q), r)
                    assert lhs == rhs, (a, q, r)

    def test_reversal(self):
        for n in range(21):
            for k in range(n + 1):
                expected = (-1) ** k * math.factorial(n) // math.factorial(n - k)
                assert pochhammer(-n, k) == expected
            assert pochhammer(-n, n + 1) == 0
            assert pochhammer(-n, n + 5) == 0


class TestStirling2:
    def test_examples(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(3, 3) == 1

    def test_against_partition_enumeration(self):
        for n in range(8):
            for k in range(n + 1):
                assert stirling2(n, k) == count_set_partitions(n, k)

    def test_explicit_formula_at_large_n(self):
        # k! S2(n, k) = sum_j (-1)^(k-j) C(k, j) j^n, at an n past the
        # interpreter's default recursion limit
        n = 1000
        for k in (1, 2, 3, 250, 500, 999, 1000):
            explicit = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
            assert stirling2(n, k) * math.factorial(k) == explicit, k

    def test_out_of_range(self):
        assert stirling2(5, -1) == 0
        assert stirling2(5, 6) == 0
        assert stirling2(0, 1) == 0


@pytest.mark.parametrize("triangle", [stirling2, stirling1_signed])
@pytest.mark.parametrize("k", [-1, 0, 5])
def test_negative_n_rejected_at_every_k(triangle, k):
    # the k range test must not answer 0 before n is checked
    with pytest.raises(ValueError, match="undefined for negative n"):
        triangle(-1, k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stirling2(2.5, 1), "stirling2 needs int n and k, got 2.5 and 1"),
        (lambda: stirling2(3, 1.5), "stirling2 needs int n and k, got 3 and 1.5"),
        (
            lambda: stirling1_signed(Fraction(3), 1),
            "stirling1_signed needs int n and k, got Fraction(3, 1) and 1",
        ),
        (
            lambda: multinomial(3, [1, 2.0]),
            "multinomial needs int n and parts, got 3 and [1, 2.0]",
        ),
    ],
)
def test_non_int_index_is_refused(call, message):
    # a one-line ValueError, not a TypeError from deep in the row cache
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestStirling1Signed:
    def test_examples(self):
        assert stirling1_signed(3, 2) == -3
        assert stirling1_signed(4, 2) == 11
        for n in range(10):
            assert stirling1_signed(n, n) == 1

    def test_falling_factorial_expansion(self):
        for n in range(11):
            coeffs = falling_factorial_coefficients(n)
            for k in range(n + 1):
                assert stirling1_signed(n, k) == coeffs[k]

    def test_falling_factorial_values(self):
        for n in range(13):
            for z in range(-5, 11):
                direct = 1
                for i in range(n):
                    direct *= z - i
                rebuilt = sum(stirling1_signed(n, k) * z**k for k in range(n + 1))
                assert rebuilt == direct

    def test_orthogonality(self):
        # sum_j s(n,j) S2(j,k) = [n == k]
        for n in range(13):
            for k in range(13):
                total = sum(stirling1_signed(n, j) * stirling2(j, k) for j in range(n + 1))
                assert total == (1 if n == k else 0)

    def test_unsigned_row_sum_at_large_n(self):
        n = 1000
        assert sum(abs(stirling1_signed(n, k)) for k in range(n + 1)) == math.factorial(n)

    def test_out_of_range(self):
        assert stirling1_signed(4, -1) == 0
        assert stirling1_signed(4, 5) == 0


def test_rows_asked_in_order_take_one_step_each(monkeypatch):
    # a triangle of its own, so no row is cached before the test asks for it
    stirling2_weights = combinatorics._WEIGHTS["stirling2"]
    steps = []

    def counted(m, k):
        if k == 0:
            steps.append(m)
        return stirling2_weights(m, k)

    monkeypatch.setitem(combinatorics._WEIGHTS, "counted stirling2", counted)
    n = 40
    rows = [combinatorics._row("counted stirling2", m) for m in range(n + 1)]
    assert steps == list(range(1, n + 1))
    assert rows == [tuple(stirling2(m, k) for k in range(m + 1)) for m in range(n + 1)]


class TestMultinomial:
    def test_examples(self):
        assert multinomial(3, (1, 1, 1)) == 6
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(5, (2, 2, 1)) == 30

    def test_factorial_ratio(self):
        parts = (3, 1, 4, 2)
        expected = math.factorial(10)
        for p in parts:
            expected //= math.factorial(p)
        assert multinomial(10, parts) == expected

    def test_parts_must_sum(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))


def test_normalize_scalar():
    assert normalize_scalar(Fraction(4, 2)) == 2
    assert isinstance(normalize_scalar(Fraction(4, 2)), int)
    assert normalize_scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert normalize_scalar(7) == 7
