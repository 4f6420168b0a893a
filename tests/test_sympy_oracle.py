"""sympy as an independent oracle for the exact kernels: rational-top
binomials, the alternating binomial sum, terminating hypergeometric series,
the Berlekamp-Massey series fit, the polynomial gcd and the canonical form of
RationalGF.  The last three run on denominators c * (b0 + b1*z)^e, the one
shape RationalGF holds.

binsum itself is stdlib-only; these checks run where sympy is installed and
are skipped elsewhere.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import binsum.sequences as sequences_mod  # noqa: E402
from binsum.combinatorics import alternating_binomial_sum, binomial  # noqa: E402
from binsum.genfunc import reconstruct_rational  # noqa: E402
from binsum.hypergeometric import hyp_terminating  # noqa: E402
from binsum.polynomials import Polynomial, RationalGF, poly_gcd  # noqa: E402


def test_binomial_rational_tops_match_sympy():
    for d in range(1, 6):
        for p in range(-12, 13):
            top = Fraction(p, d)
            for k in range(11):
                expected = sympy.binomial(sympy.Rational(p, d), k)
                assert binomial(top, k) == Fraction(int(expected.p), int(expected.q))


def test_alternating_sum_at_rational_steps_matches_sympy():
    rng = random.Random(2023)
    for d in range(2, 6):
        for p in range(31):
            step = Fraction(p, d)
            n, offset, bottom = rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 12)
            expected = sum(
                (-1) ** i
                * sympy.binomial(n, i)
                * sympy.binomial(offset + sympy.Rational(p, d) * i, bottom)
                for i in range(n + 1)
            )
            value = alternating_binomial_sum(n, offset, step, bottom)
            assert value == Fraction(int(expected.p), int(expected.q)), (n, offset, step, bottom)


def _hyper_sympy(numerator_params, denominator_params):
    a = [_rational(Fraction(c)) for c in numerator_params]
    b = [_rational(Fraction(c)) for c in denominator_params]
    expanded = sympy.hyperexpand(sympy.hyper(a, b, 1))
    return Fraction(int(expanded.p), int(expanded.q))


def test_terminating_series_on_a_random_grid_matches_sympy():
    # a nonpositive integer numerator parameter ends each series, and no
    # denominator parameter is a nonpositive integer, so no pole is reached
    rng = random.Random(1992)
    for _ in range(30):
        nums = [-rng.randint(0, 5)]
        nums += [Fraction(rng.randint(-9, 9), rng.randint(2, 4)) for _ in range(rng.randint(0, 2))]
        dens, count = [], rng.randint(1, 2)
        while len(dens) < count:
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if b.denominator != 1 or b > 0:
                dens.append(b)
        assert hyp_terminating(nums, dens) == _hyper_sympy(nums, dens), (nums, dens)


def test_terminating_series_of_both_families_matches_sympy(monkeypatch):
    # the (p, d) pair lists a_hypergeom and b_hypergeom build at small k, q, m
    calls = []
    real = sequences_mod._series_sum
    monkeypatch.setattr(
        sequences_mod, "_series_sum", lambda a, b: calls.append((a, b)) or real(a, b)
    )
    for k in range(3):
        for q in range(3):
            for m in range(4):
                sequences_mod.a_hypergeom(k, q, m)
                if q:
                    sequences_mod.b_hypergeom(k, q, m)
    assert len(calls) == 60
    for num_pairs, den_pairs in calls:
        nums = [Fraction(p, d) for p, d in num_pairs]
        dens = [Fraction(p, d) for p, d in den_pairs]
        want = _hyper_sympy(nums, dens)
        assert hyp_terminating(nums, dens) == want, (nums, dens)
        assert Fraction(*real(num_pairs, den_pairs)) == want, (nums, dens)


def _random_polynomial(rng, max_degree):
    return Polynomial(
        Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(rng.randint(0, max_degree + 1))
    )


def _rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def _as_sympy(p, z):
    return sum((_rational(c) * z**i for i, c in enumerate(p.coefficients)), sympy.Integer(0))


def _random_linear(rng):
    """b0 + b1*z with b1 != 0, not always primitive."""
    return Polynomial([rng.randint(-4, 4), rng.choice([-3, -2, -1, 1, 2, 3])])


def test_reconstruct_matches_sympy_linear_recurrence():
    z = sympy.Symbol("z")
    rng = random.Random(1969)
    orders = set()
    for _ in range(50):
        den = Polynomial([rng.randint(1, 3), rng.choice([-3, -2, -1, 1, 2, 3])]) ** rng.randint(1, 4)
        num = _random_polynomial(rng, den.degree - 1)
        terms = RationalGF(num, den).series(2 * den.degree + 2)
        fit = reconstruct_rational(terms)
        coefficients, gf = sympy.SeqPer(tuple(_rational(t) for t in terms)).find_linear_recurrence(
            len(terms), gfvar=z
        )
        order = max(fit.denominator.degree, fit.numerator.degree + 1)
        assert order == len(coefficients), terms
        want = gf if gf is not None else sympy.Integer(0)
        got = _as_sympy(fit.numerator, z) / _as_sympy(fit.denominator, z)
        assert sympy.cancel(got - want) == 0, terms
        orders.add(order)
    assert {1, 2, 3, 4} <= orders


def _pairs_with_common_factor(rng, count):
    """Random (a, b) with b = c * L^e for a random linear L, e <= 4, and a a
    random polynomial times L^m, m <= e."""
    for _ in range(count):
        base = _random_linear(rng)
        e = rng.randint(0, 4)
        scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        yield _random_polynomial(rng, 4) * base ** rng.randint(0, e), scale * base**e


def test_poly_gcd_matches_sympy_up_to_a_scalar():
    z = sympy.Symbol("z")
    rng = random.Random(1967)
    degrees = set()
    for a, b in _pairs_with_common_factor(rng, 200):
        got = poly_gcd(a, b)
        want = sympy.Poly(sympy.gcd(_as_sympy(a, z), _as_sympy(b, z)), z, domain="QQ")
        if want.is_zero:
            assert got.is_zero(), (a, b)
            continue
        # poly_gcd is monic; sympy's gcd is the same polynomial up to a scalar
        monic = [Fraction(int(c.p), int(c.q)) for c in reversed(want.monic().all_coeffs())]
        assert list(got.coefficients) == monic, (a, b)
        degrees.add(got.degree)
    assert {0, 1, 2, 3} <= degrees


def test_canonical_form_matches_sympy_cancel():
    z = sympy.Symbol("z")
    rng = random.Random(1971)
    for a, b in _pairs_with_common_factor(rng, 120):
        f = RationalGF(a, b)
        num, den = sympy.fraction(sympy.cancel(_as_sympy(a, z) / _as_sympy(b, z)))
        got_num, got_den = _as_sympy(f.numerator, z), _as_sympy(f.denominator, z)
        # sympy's num/den is in lowest terms, so the same function with the
        # same degrees is the same pair up to one scalar
        assert sympy.expand(got_num * den - num * got_den) == 0, (a, b)
        assert sympy.degree(got_num, z) == sympy.degree(num, z), (a, b)
        assert sympy.degree(got_den, z) == sympy.degree(den, z), (a, b)
