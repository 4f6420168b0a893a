"""Generating functions, transforms, reconstruction, recurrences."""

from collections import defaultdict
from fractions import Fraction

import pytest

from binsum import combinatorics
from binsum.combinatorics import binomial, factorial, stirling1_signed
from binsum.errors import (
    NeedsMoreTermsError,
    NotALinearPowerError,
    NotAPowerSeriesError,
    UnsupportedParameterError,
)
from binsum.genfunc import (
    A_gf,
    B_gf,
    C2_closed_form,
    C_gf_stirling,
    binomial_transform_gf,
    omega_poly,
    paper_gf,
    power_sum_gf,
    reconstruct_rational,
    recurrence_from_gf,
    recurrence_terms,
    stirling_binomial_transform_check,
    stirling_omega_identity_check,
)
from binsum.polynomials import Polynomial, RationalGF
from binsum.sequences import a_double_sum, b_direct, c_direct


def _B_gf_by_steps(k, q):
    """Reference: 1/(1+qz) plus each T_step/(1+qz)^(step+1), added as
    RationalGFs one step at a time."""
    result = RationalGF(1, [1, q])
    for step in range(1, k + 1):
        correction = []
        for s in range(step + 1):
            coefficient = 0
            for j in range(s + 1):
                inner = sum(
                    (-1) ** i * binomial(j, i) * binomial(j + step - 1 + q * i, q * i - 1)
                    for i in range(j + 1)
                )
                coefficient += binomial(step + 1, s - j) * q ** (s - j) * inner
            correction.append(coefficient)
        result = result + RationalGF(correction, Polynomial([1, q]) ** (step + 1))
    return result


def _C_gf_per_t(J, q):
    """Reference: sum_t w_t P_t (1-z)^(J-t) with each power of (1-z) built on
    its own, P_t = sum_i omega_t[i] z^i (1-z)^(t-i) term by term."""
    one_minus = Polynomial([1, -1])
    numerator = Polynomial()
    for t in range(J + 1):
        omega_num = Polynomial()
        for i, c in enumerate(omega_poly(t).coefficients):
            omega_num = omega_num + c * Polynomial.monomial(1, i) * one_minus ** (t - i)
        weight = q**t * (-1) ** (J + t) * stirling1_signed(J + 1, t + 1)
        numerator = numerator + weight * omega_num * one_minus ** (J - t)
    return RationalGF(numerator, factorial(J) * one_minus ** (J + 1))


def test_gf_series_examples():
    assert RationalGF([1], [1, 2]).series(4) == [1, -2, 4, -8]
    row_12 = RationalGF([1, -1], Polynomial([1, 2]) ** 2)
    assert row_12.series(5) == [1, -5, 16, -44, 112]
    assert RationalGF([1], [1, -1]).series(3) == [1, 1, 1]


class TestBgf:
    def test_base_case(self):
        assert B_gf(0, 3) == RationalGF([1], [1, 3])

    def test_tabulated_rows(self):
        assert B_gf(1, 2) == RationalGF([1, -1], Polynomial([1, 2]) ** 2)
        assert B_gf(2, 2) == RationalGF([1, -3, -1], Polynomial([1, 2]) ** 3)
        assert B_gf(3, 3) == RationalGF([1, -22, -3], Polynomial([1, 3]) ** 4)

    def test_series_matches_direct_sums(self):
        for k in range(6):
            for q in range(6):
                series = B_gf(k, q).series(30)
                assert series == [b_direct(k, q, j) for j in range(30)], (k, q)

    def test_rational_q_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            B_gf(1, Fraction(1, 2))

    def test_matches_step_by_step_reference(self):
        for k in range(11):
            for q in range(6):
                assert B_gf(k, q) == _B_gf_by_steps(k, q), (k, q)


class TestBinomialTransform:
    def test_geometric_rows(self):
        for q in range(7):
            assert binomial_transform_gf(RationalGF([1], [1, q])) == RationalGF(
                [1], [1, -(q + 1)]
            )

    def test_row_1_2(self):
        image = binomial_transform_gf(B_gf(1, 2))
        assert image == RationalGF([1], Polynomial([1, -3]) ** 2)

    def test_row_2_3_canonical_sign(self):
        image = binomial_transform_gf(B_gf(2, 3))
        assert image == RationalGF([1, 8, -12], Polynomial([1, -4]) ** 3)

    def test_involution(self):
        for k in range(5):
            for q in range(5):
                f = B_gf(k, q)
                assert binomial_transform_gf(binomial_transform_gf(f)) == f

    def test_inverse_recovers_b(self):
        # the transform is its own inverse, so applying it to A gives B back
        for k in range(6):
            for q in range(6):
                assert binomial_transform_gf(A_gf(k, q)) == B_gf(k, q)


class TestAgf:
    def test_tabulated_rows(self):
        assert A_gf(3, 4) == RationalGF([1, 50, -75], Polynomial([1, -5]) ** 4)
        assert A_gf(5, 6) == RationalGF(
            [1, 882, 10731, -40474, 36015], Polynomial([1, -7]) ** 6
        )

    def test_q_zero_collapses(self):
        for k in range(7):
            assert A_gf(k, 0) == RationalGF([1], [1, -1])

    def test_series_matches_double_sum(self):
        for k in range(6):
            for q in range(6):
                series = A_gf(k, q).series(30)
                assert series == [a_double_sum(k, q, m) for m in range(30)], (k, q)


class TestOmega:
    def test_examples(self):
        assert omega_poly(0) == Polynomial([1])
        assert omega_poly(1) == Polynomial([0, 1])
        assert omega_poly(3) == Polynomial([0, 1, 6, 6])
        assert omega_poly(4) == Polynomial([0, 1, 14, 36, 24])


def _eulerian(n, t):
    """Eulerian number <n, t> by its explicit alternating sum."""
    return sum((-1) ** j * binomial(n + 1, j) * (t + 1 - j) ** n for j in range(t + 2))


class TestPowerSum:
    def test_examples(self):
        assert power_sum_gf(0) == RationalGF([1], [1, -1])
        assert power_sum_gf(1) == RationalGF([0, 1], Polynomial([1, -1]) ** 2)
        assert power_sum_gf(2) == RationalGF([0, 1, 1], Polynomial([1, -1]) ** 3)

    def test_numerator_rows(self):
        for n in range(1, 9):
            numerator = power_sum_gf(n).numerator
            row = [0] + [_eulerian(n, t) for t in range(n)]
            assert [numerator.coefficient(i) for i in range(n + 1)] == row

    def test_series_enumerates_powers(self):
        for n in range(1, 9):
            series = power_sum_gf(n).series(12)
            assert series == [j**n for j in range(12)]


class TestCgf:
    def test_tabulated_rows(self):
        assert C_gf_stirling(1, 3) == RationalGF([1, 2], Polynomial([1, -1]) ** 2)
        assert C_gf_stirling(2, 3) == RationalGF([1, 7, 1], Polynomial([1, -1]) ** 3)
        assert C_gf_stirling(3, 5) == RationalGF(
            [1, 52, 68, 4], Polynomial([1, -1]) ** 4
        )

    def test_degenerate_rows(self):
        for q in range(6):
            assert C_gf_stirling(0, q) == RationalGF([1], [1, -1])
        for J in range(6):
            assert C_gf_stirling(J, 0) == RationalGF([1], [1, -1])

    def test_series_matches_direct(self):
        for J in range(7):
            for q in range(6):
                series = C_gf_stirling(J, q).series(30)
                assert series == [c_direct(J, q, i) for i in range(30)], (J, q)

    def test_matches_per_t_reference(self):
        for J in range(11):
            for q in range(6):
                assert C_gf_stirling(J, q) == _C_gf_per_t(J, q), (J, q)

    def test_matches_seed_reference_at_large_J(self):
        for J in (11, 17, 24, 33, 45, 60):
            for q in range(6):
                reference = paper_gf("c", J, q)
                n = J + 11
                assert reference.series(n) == [c_direct(J, q, i) for i in range(n)], (J, q)
                assert C_gf_stirling(J, q) == reference, (J, q)

    def test_build_caches_no_stirling2_row(self, monkeypatch):
        # the Stirling rows are walked one at a time, not kept for the process
        monkeypatch.setattr(combinatorics, "_ROWS", defaultdict(lambda: {0: (1,)}))
        C_gf_stirling(60, 1)
        assert "stirling2" not in combinatorics._ROWS


class TestPaperGf:
    """The function built from k+1 seed terms against the paper's constructions."""

    def test_a_construction_at_size(self):
        assert A_gf(40, 3) == paper_gf("a", 40, 3)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            paper_gf("a", -1, 2)


@pytest.mark.parametrize(
    "build, args, message",
    [
        # "A" is the CLI's name; the library takes the sequence's own
        (paper_gf, ("A", 2, 3), "family must be 'a', 'b' or 'c', got 'A'"),
        (recurrence_terms, ("x", 2, 3, 5), "family must be 'a', 'b' or 'c', got 'x'"),
        (C_gf_stirling, (1.5, 2), "J must be a nonnegative integer, got 1.5"),
        (C2_closed_form, (2.0,), "J must be a nonnegative integer, got 2.0"),
        (omega_poly, (2.5,), "n must be a nonnegative integer, got 2.5"),
        (paper_gf, ("c", 2, -1), "q must be nonnegative, got -1"),
    ],
    ids=["paper_gf-family", "recurrence_terms-family", "C_gf_stirling-J", "C2_closed_form-J",
         "omega_poly-n", "paper_gf-q"],
)
def test_bad_input_is_a_one_line_value_error(build, args, message):
    with pytest.raises(ValueError) as info:
        build(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


class TestC2:
    def test_examples(self):
        assert C2_closed_form(0) == RationalGF([1], [1, -1])
        assert C2_closed_form(1) == RationalGF([1, 1], Polynomial([1, -1]) ** 2)
        assert C2_closed_form(3) == RationalGF([1, 6, 1], Polynomial([1, -1]) ** 4)

    def test_matches_construction(self):
        for J in range(9):
            assert C2_closed_form(J) == C_gf_stirling(J, 2)

    def test_three_term_relation(self):
        for J in range(2, 9):
            lhs = C2_closed_form(J) * Polynomial([1, -1])
            rhs = C2_closed_form(J - 1) * 2 - C2_closed_form(J - 2)
            assert lhs == rhs


class TestReconstruct:
    def test_geometric(self):
        for q in (1, 2, 5):
            series = [(-q) ** j for j in range(6)]
            assert reconstruct_rational(series) == RationalGF([1], [1, q])

    def test_fractional_row_from_terms(self):
        series = [b_direct(1, Fraction(1, 2), j) for j in range(8)]
        expected = RationalGF([8, 1], 2 * Polynomial([2, 1]) ** 2)
        assert reconstruct_rational(series) == expected

    def test_overdetermined_still_verified(self):
        f = RationalGF([1, -1], Polynomial([1, 2]) ** 2)
        assert reconstruct_rational(f.series(20)) == f

    def test_degree_slack_is_fine(self):
        # the numerator degree may sit well below the order
        f = RationalGF([1], Polynomial([1, -3]) ** 2)
        assert reconstruct_rational(f.series(5)) == f

    def test_needs_more_terms(self):
        # 1, 2, 3 suggest order 2, which needs 5 terms
        with pytest.raises(NeedsMoreTermsError) as info:
            reconstruct_rational([1, 2, 3])
        assert str(info.value) == "need at least 5 terms to fit a recurrence of order 2, got 3"

    def test_fibonacci(self):
        # 1/(1 - z - z^2) has two distinct roots, which RationalGF does not hold
        with pytest.raises(NotALinearPowerError) as info:
            reconstruct_rational([1, 1, 2, 3, 5, 8])
        assert str(info.value) == (
            "denominator 1 - z - z^2 is not a constant times a power of one linear factor"
        )

    def test_zero_series(self):
        assert reconstruct_rational([0]) == RationalGF(0)
        with pytest.raises(NeedsMoreTermsError):
            reconstruct_rational([])

    def test_tabulated_round_trip(self):
        for build, x, y in ((B_gf, 3, 2), (A_gf, 2, 3), (B_gf, 4, 1)):
            f = build(x, y)
            order = max(f.denominator.degree, f.numerator.degree + 1)
            assert reconstruct_rational(f.series(2 * order + 1)) == f


class TestRecurrence:
    def test_square_pole(self):
        rec = recurrence_from_gf(RationalGF([1], Polynomial([1, -3]) ** 2))
        assert rec.order == 2
        assert rec.coefficients == (6, -9)
        assert rec.initial_terms == (1, 6)
        assert rec.offset == 0
        assert rec.terms(5) == [1, 6, 27, 108, 405]

    def test_first_order(self):
        for q in range(1, 6):
            rec = recurrence_from_gf(RationalGF([1], [1, q]))
            assert rec.order == 1
            assert rec.coefficients == (-q,)
            assert rec.initial_terms == (1,)

    def test_order_tracks_pole_multiplicity(self):
        for k in range(5):
            rec = recurrence_from_gf(B_gf(k, 1))
            assert rec.order == k + 1

    def test_polynomial_gf(self):
        # a constant function has the degenerate zero recurrence
        rec = recurrence_from_gf(B_gf(2, 0))
        assert rec.coefficients == (0,)
        assert rec.terms(6) == [1, 0, 0, 0, 0, 0]

    def test_offset_absorbs_numerator_overhang(self):
        # numerator degree >= order forces a nonzero offset
        f = RationalGF([1, 0, 0, 5], [1, -1])
        rec = recurrence_from_gf(f)
        assert rec.order == 1
        assert rec.offset == 3
        assert rec.terms(8) == f.series(8)

    def test_regenerates_table_sequences(self):
        rec = recurrence_from_gf(A_gf(2, 3))
        assert rec.terms(20) == [a_double_sum(2, 3, m) for m in range(20)]

    def test_terms_refuses_a_negative_or_non_integer_count(self):
        # a slice to -1 would drop the last seed, and range(2.5) a TypeError
        rec = recurrence_from_gf(paper_gf("a", 2, 3))
        assert rec.terms(0) == []
        for n in (-1, 2.5):
            with pytest.raises(ValueError) as info:
                rec.terms(n)
            assert str(info.value) == f"n must be a nonnegative integer, got {n}"

    def test_an_immutable_value(self):
        # built twice it compares and hashes equal, its repr names every
        # field, and no field can be reassigned
        rec = recurrence_from_gf(RationalGF([1], Polynomial([1, -3]) ** 2))
        again = recurrence_from_gf(RationalGF([1], Polynomial([1, -3]) ** 2))
        assert rec == again and hash(rec) == hash(again)
        assert rec != recurrence_from_gf(RationalGF([1], [1, -3]))
        assert repr(rec) == (
            "CFiniteRecurrence(order=2, coefficients=(6, -9), initial_terms=(1, 6), offset=0)"
        )
        for field in ("order", "coefficients", "initial_terms", "offset"):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)

    def test_render(self):
        rec = recurrence_from_gf(RationalGF([1], Polynomial([1, -3]) ** 2))
        assert rec.render() == "a(n) = 6*a(n-1) - 9*a(n-2)"
        assert rec.render("b") == "b(n) = 6*b(n-1) - 9*b(n-2)"

    def test_pole_at_origin_rejected(self):
        with pytest.raises(NotAPowerSeriesError):
            recurrence_from_gf(RationalGF([1], [0, 1]))

    def test_values_are_exact_never_float(self):
        # the polynomial kernel computes in int, and its accessors must hand
        # out Fractions: callers divide them, and int / int is a float
        exact = (int, Fraction)
        rational = RationalGF([Fraction(1, 3), 2], 3 * Polynomial([2, -1]) ** 2)
        for f in (A_gf(3, 2), B_gf(2, 5), rational):
            for p in (f.numerator, f.denominator):
                assert all(isinstance(c, exact) for c in p.coefficients)
                assert all(isinstance(p.coefficient(i), exact) for i in range(p.degree + 2))
            assert all(isinstance(t, exact) for t in f.series(12))
        for k in range(5):
            for q in range(4):
                rec = recurrence_from_gf(A_gf(k, q))
                assert all(isinstance(c, exact) for c in rec.coefficients), (k, q)
                assert all(isinstance(t, exact) for t in rec.initial_terms), (k, q)

    def test_integral_values_are_int(self):
        # the convention combinatorics documents: an integral value is an int,
        # so no Fraction is built for it
        for k in range(6):
            for q in range(4):
                rec = recurrence_from_gf(A_gf(k, q))
                assert all(type(c) is int for c in rec.coefficients), (k, q)
                assert all(type(t) is int for t in rec.initial_terms), (k, q)
                assert all(type(t) is int for t in B_gf(k, q).series(12)), (k, q)
        polynomial = recurrence_from_gf(RationalGF([1, 2]))
        assert all(type(v) is int for v in polynomial.coefficients + polynomial.initial_terms)
        halves = RationalGF([1], [2, -1]).series(4)
        assert halves == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        assert type(RationalGF([2], [2, -1]).series(1)[0]) is int


class TestStirlingChecks:
    def test_partial_transform_examples(self):
        lhs, rhs = stirling_binomial_transform_check(3, 1)
        assert lhs == rhs == 33
        for J, t in ((2, 2), (2, 1), (5, 0), (7, 4)):
            lhs, rhs = stirling_binomial_transform_check(J, t)
            assert lhs == rhs

    def test_partial_transform_full_grid(self):
        for J in range(1, 13):
            for t in range(J + 1):
                lhs, rhs = stirling_binomial_transform_check(J, t)
                assert lhs == rhs, (J, t)

    def test_omega_inversion(self):
        for n in range(11):
            monomial, rebuilt = stirling_omega_identity_check(n)
            assert monomial == rebuilt, n

    def test_domain(self):
        with pytest.raises(ValueError):
            stirling_binomial_transform_check(0, 0)
        with pytest.raises(ValueError):
            stirling_binomial_transform_check(3, 4)
