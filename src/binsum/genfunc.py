"""Generating-function constructions for the three families.

B(k, q; z) generates b(k, q; j).  It starts from the geometric 1/(1+qz) and
climbs in k by adding a polynomial correction over (1+qz)^(k+1).  A(k, q; z)
generates a(k, q; m) and is the sign-flipped binomial transform of B at the
function level: A(z) = 1/(1-z) * B(-z/(1-z)).  That substitution is an
involution, so the same operator maps A back to B.

C(J, q; z) generates c(J, q; i) and is assembled from the geometric
polynomials omega_n (power-sum numerators) weighted by signed Stirling
numbers of the first kind.

Those are the paper's constructions.  Its theorem fixes the shape of all
three functions, P(z)/(1 - r z)^(k+1) with deg P <= k, so paper_gf builds
each from k+1 terms instead; the constructions are its references.

The module also reconstructs rational functions from series prefixes,
finding the shortest recurrence by fraction-free Berlekamp-Massey over the
integers, and reads off C-finite recurrences from denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Sequence

from .combinatorics import (
    Scalar,
    _refuse_float,
    _row_step,
    alternating_binomial_sum,
    binomial,
    factorial,
    normalize_scalar,
    stirling1_signed,
    stirling2,
)
from .errors import NeedsMoreTermsError, NoRationalFitError, NotAPowerSeriesError
from .polynomials import Polynomial, RationalGF, render_terms, substitute_cleared
from .sequences import (
    _check_nonnegative,
    _check_q,
    _per_index,
    _require_integer_q,
    a_single_sum_terms,
    b_direct_terms,
    c_direct,
)


def _one_minus_power(r: Scalar, n: int) -> list[Scalar]:
    """Coefficients of (1 - r z)^n: C(n, i) (-r)^i for i = 0..n."""
    return [math.comb(n, i) * (-r) ** i for i in range(n + 1)]


def _truncated_product(w: Sequence[Scalar], s: Sequence[Scalar]) -> list[Scalar]:
    """(w * s) mod z^len(s) for coefficient lists w and s; w may be shorter."""
    return [sum(x * y for x, y in zip(w, reversed(s[: j + 1]))) for j in range(len(s))]


def B_gf(k: int, q: int) -> RationalGF:
    """Generating function of b(k, q; j) for integer k, q >= 0.

    Base case 1/(1+qz); each step k-1 -> k adds T_k(z)/(1+qz)^(k+1) where

      T_k(z) = sum_{s=0..k} z^s sum_{j=0..s} C(k+1, s-j) q^(s-j)
               * sum_{i=0..j} (-1)^i C(j,i) C(j+k-1+q*i, q*i-1),

    ((1+qz)^(k+1) times the inner sums) mod z^(k+1).  Every top is >= 0, so
    C(j+k-1+q*i, q*i-1) = C(j+k-1+q*i, j+k), both 0 at i = 0 and q = 0, and
    the inner sum is alternating_binomial_sum(j, j+k-1, q, j+k).  Horner,
    N <- N*(1+qz) + T_step from N = 1, adds the steps over (1+qz)^(k+1),
    on coefficient lists: N*(1+qz) and T_step both have step+1 entries.
    """
    _check_nonnegative("k", k)
    q = _require_integer_q(q, "B_gf")
    numerator = [1]
    for step in range(1, k + 1):
        inner = [alternating_binomial_sum(j, j + step - 1, q, j + step) for j in range(step + 1)]
        correction = _truncated_product(_one_minus_power(-q, step + 1), inner)
        numerator = [
            a + q * b + t for a, b, t in zip(numerator + [0], [0] + numerator, correction)
        ]
    return RationalGF(numerator, _one_minus_power(-q, k + 1))


def binomial_transform_gf(f: RationalGF) -> RationalGF:
    """The substitution g(z) = 1/(1-z) * f(-z/(1-z)).

    This is exactly the map sending the generating function of b(j) to that
    of a(m) = sum_j (-1)^j C(m,j) b(j), and it is an involution: applying it
    twice returns the input.

    With f = N/D and L = max(deg N + 1, deg D), g is (1-z)^(L-1) N(w) over
    (1-z)^L D(w), w = -z/(1-z).  A D = c (b0 + b1 z)^e maps to
    c (1-z)^(L-e) (b0 - (b0 + b1) z)^e, so a proper or polynomial f, where
    L = e or e = 0, keeps one linear factor.
    """
    num, den = f.numerator, f.denominator
    lift = max(num.degree + 1, den.degree)
    return RationalGF(substitute_cleared(num, -1, lift - 1), substitute_cleared(den, -1, lift))


def A_gf(k: int, q: int) -> RationalGF:
    """Generating function of a(k, q; m): the binomial transform of B_gf."""
    return binomial_transform_gf(B_gf(k, q))


def omega_poly(n: int) -> Polynomial:
    """Geometric polynomial omega_n(x) = sum_k S2(n,k) k! x^k."""
    _check_nonnegative("n", n)
    return Polynomial([stirling2(n, j) * factorial(j) for j in range(n + 1)])


def _omega_sum(weights: Sequence[Scalar]) -> Polynomial:
    """(1/n!) sum_{t=0..n} weights[t] omega_t(x), with n = len(weights) - 1.

    Coefficient j is (j!/n!) sum_{t>=j} weights[t] S2(t, j), so collecting
    it takes O(n^2) coefficient work and no polynomial arithmetic.  The rows
    S2(t, .) are walked in order, each built from the one before, so one
    row is held at a time and none is cached."""
    n = len(weights) - 1
    sums = [0] * (n + 1)
    row = [1]
    for t, w in enumerate(weights):
        if t:
            row = _row_step("stirling2", row, t)
        for j, s in enumerate(row):
            sums[j] += w * s
    return Polynomial([factorial(j) * s for j, s in enumerate(sums)]) * Fraction(1, factorial(n))


def _geometric_gf(w: Polynomial, n: int) -> RationalGF:
    """1/(1-x) * w(x/(1-x)) for deg w <= n, as a numerator over (1-x)^(n+1)."""
    return RationalGF(substitute_cleared(w, 1, n), _one_minus_power(1, n + 1))


def power_sum_gf(n: int) -> RationalGF:
    """Rational form of sum_{k>=0} k^n x^k, built by the omega substitution."""
    return _geometric_gf(omega_poly(n), n)


def C_gf_stirling(J: int, q: Scalar) -> RationalGF:
    """Generating function of c(J, q; i) via geometric polynomials.

    C(J, q; z) = (1/J!) sum_{t=0..J} [1/(1-z)] omega_t(z/(1-z)) q^t
                 * (-1)^(J+t) s(J+1, t+1)

    with s the signed Stirling numbers of the first kind.  The Stirling
    identity behind it is polynomial in q, so it holds at rational q too.

    The substitution z -> z/(1-z) is linear, so the sum is taken first: with
    w_t the weight of term t, W(z) = (1/J!) sum_t w_t omega_t(z) is one
    polynomial of degree <= J, substituted once as (1-z)^J W(z/(1-z)) over
    (1-z)^(J+1).
    """
    _check_nonnegative("J", J)
    q = _check_q(q)
    weights = [q**t * (-1) ** (J + t) * stirling1_signed(J + 1, t + 1) for t in range(J + 1)]
    return _geometric_gf(_omega_sum(weights), J)


def C2_closed_form(J: int) -> RationalGF:
    """Closed form at q=2: sum_l C(J+1, 2l) z^l over (1-z)^(J+1).

    Satisfies the three-term relation (1-z) C(J) = 2 C(J-1) - C(J-2) for
    J >= 2 and agrees with C_gf_stirling(J, 2).
    """
    _check_nonnegative("J", J)
    numerator = [binomial(J + 1, 2 * l) for l in range((J + 1) // 2 + 1)]
    return RationalGF(numerator, _one_minus_power(1, J + 1))


def reconstruct_rational(series: Sequence[Scalar]) -> RationalGF:
    """The rational function of least order whose series starts with series.

    The order L of P/Q is max(deg Q, deg P + 1), the length of the shortest
    linear recurrence the series satisfies, and Berlekamp-Massey (Massey
    1969) finds that recurrence in O(N L) steps for N terms.  The terms are
    scaled to integers by the lcm of their denominators, which leaves the
    recurrence alone, and the connection polynomial C is updated fraction
    free, C <- b C - d z^m B, with its content divided out at each step.
    The numerator is (T C) mod z^L for the scaled terms T.  N terms fix a
    recurrence of order L only when N >= 2L, so N < 2L + 1 (no spare term)
    raises NeedsMoreTermsError.  The candidate is checked against every
    supplied term before it is returned.  A least-order fit is already in
    lowest terms, so a C with two distinct roots is the series' own, and
    RationalGF refuses it with NotALinearPowerError.
    """
    terms = [Fraction(_refuse_float("a series term", t)) for t in series]
    scale = math.lcm(*[t.denominator for t in terms])
    scaled = [t.numerator * (scale // t.denominator) for t in terms]
    # C is the connection polynomial, of degree <= L; B is C as it was before
    # step `last`, the last one that raised L, and b its discrepancy there
    C, B, L, b, last = [1], [1], 0, 1, -1
    for n in range(len(scaled)):
        d = sum(c * scaled[n - i] for i, c in enumerate(C))
        if d == 0:
            continue
        shifted = [0] * (n - last) + B
        C, previous = [b * x - d * y for x, y in zip_longest(C, shifted, fillvalue=0)], C
        while C[-1] == 0:
            C.pop()
        content = math.gcd(*C)
        C = [c // content for c in C]
        if 2 * L <= n:
            L, B, b, last = n + 1 - L, previous, d, n
    if len(terms) < 2 * L + 1:
        raise NeedsMoreTermsError(
            f"need at least {2 * L + 1} terms to fit a recurrence of order {L}, got {len(terms)}"
        )
    candidate = RationalGF(_truncated_product(C, scaled[:L]), [c * scale for c in C])
    if candidate.series(len(terms)) != terms:
        raise NoRationalFitError(f"the order-{L} fit does not reproduce all {len(terms)} terms")
    return candidate


@dataclass(frozen=True)
class CFiniteRecurrence:
    """Constant-coefficient linear recurrence read off a rational GF.

    a(n) = sum_{i=1..order} coefficients[i-1] * a(n-i) holds for every
    n >= offset + order; initial_terms covers indices 0..offset+order-1.
    offset counts the leading indices where the numerator still interferes.
    """

    order: int
    coefficients: tuple[Scalar, ...]
    initial_terms: tuple[Scalar, ...]
    offset: int

    def terms(self, n: int) -> list[Scalar]:
        """First n sequence values: seed terms, then the recurrence.

        Integral values come back as int.  An all-int recurrence makes only
        ints, so only one with a Fraction coefficient or seed is normalized.
        """
        out = list(self.initial_terms[:n])
        while len(out) < n:
            position = len(out)
            out.append(
                sum(c * out[position - i] for i, c in enumerate(self.coefficients, start=1))
            )
        if all(type(x) is int for x in (*self.coefficients, *self.initial_terms)):
            return out
        return [normalize_scalar(x) for x in out]

    def render(self, symbol: str = "a") -> str:
        summed = render_terms(
            (c, f"{symbol}(n-{i})") for i, c in enumerate(self.coefficients, start=1)
        )
        return f"{symbol}(n) = {summed}"


def paper_seed(family: str, q: Scalar) -> tuple[Callable[[int, Scalar, int], list], Scalar]:
    """The seed prefix (k, q, n) -> [term 0..n-1] of family "a", "b" or "c"
    and the r of its denominator (1 - r z)^(k+1), with J in place of k for c.

    B_gf's Horner build leaves a numerator N of degree <= k over
    (1+qz)^(k+1), and the binomial transform turns that into
    (1-z)^k N(-z/(1-z)) over (1-(q+1)z)^(k+1), again of degree <= k.
    c(J, q; i) = C(J + q i, J) is a polynomial of degree <= J in i, so its
    function is a numerator of degree <= J over (1-z)^(J+1).  So every
    family has a generating function P(z)/(1 - r z)^(k+1) with deg P < k+1,
    where r = q+1 for a, r = -q for b and r = 1 for c, and
    (1 - r E^-1)^(k+1) annihilates it from index k+1 on (at q = 0, b is a
    polynomial and r = 0 makes every later term zero).  That holds at every
    integer q >= 0, and for fixed k and index each term is a polynomial in
    q (see a_single_sum), so it holds at every rational q >= 0 too.
    """
    # built per call, so the prefixes are the ones the module holds now;
    # c's terms C(J + q i, J) share no sum to carry, so its prefix is per index
    c_prefix = _per_index(c_direct)
    seeds = {"a": (a_single_sum_terms, q + 1), "b": (b_direct_terms, -q), "c": (c_prefix, 1)}
    if family not in seeds:
        raise ValueError(f"family must be 'a', 'b' or 'c', got {family!r}")
    return seeds[family]


def paper_gf(family: str, k: int, q: Scalar) -> RationalGF:
    """Generating function of family "a", "b" or "c" (J in place of k for c)
    from its first k+1 terms.

    With the form P(z)/(1 - r z)^(k+1), deg P <= k, of paper_seed, the seed
    terms s, read as one prefix, fix P = (s * (1 - r z)^(k+1)) mod z^(k+1)
    (Stanley, Enumerative Combinatorics I, Thm 4.1.1): O(k^2) multiply-adds.
    RationalGF puts the quotient in canonical form, so common factors
    (all of them for b at q = 0) cancel.  A_gf, B_gf and C_gf_stirling are
    the paper's constructions of the same functions.
    """
    _check_nonnegative("k", k)
    q = _check_q(q)
    seed, r = paper_seed(family, q)
    weights = _one_minus_power(r, k + 1)
    return RationalGF(_truncated_product(weights, seed(k, q, k + 1)), weights)


def recurrence_terms(family: str, k: int, q: Scalar, n: int) -> list[Scalar]:
    """First n terms of family "a", "b" or "c" (J in place of k for c) at
    rational q >= 0, unrolled from the annihilator (1 - r E^-1)^(k+1).

    The first k+1 terms come from paper_seed's prefix; each later one is
    sum_{i=1..k+1} -C(k+1, i) (-r)^i s(n-i), k+1 multiply-adds, with no
    Polynomial or RationalGF built.  When n <= k+1 the seeds are the answer
    and the coefficients, up to k+1 numbers of O(k log(k r)) bits, are not
    built.
    """
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    q = _check_q(q)
    seed, r = paper_seed(family, q)
    order = k + 1
    initial = seed(k, q, min(n, order))
    if n <= order:
        return initial
    coefficients = tuple(-w for w in _one_minus_power(r, order)[1:])
    return CFiniteRecurrence(order, coefficients, tuple(initial), 0).terms(n)


def recurrence_from_gf(f: RationalGF) -> CFiniteRecurrence:
    """Extract the C-finite recurrence of the series of f.

    With the denominator normalized to constant term 1 and coefficients
    d_0=1, d_1..d_r, the series satisfies a(n) = -sum d_i a(n-i) whenever
    n exceeds the numerator degree.  The offset is how many extra leading
    terms beyond the order are needed before that holds unconditionally.
    """
    d0 = f.denominator.coefficient(0)
    if d0 == 0:
        raise NotAPowerSeriesError("denominator constant coefficient is zero")
    order = f.denominator.degree
    if order == 0:
        # polynomial: finitely many nonzero terms; model as order-1 with zero tail
        offset = f.numerator.degree + 1
        seed = f.series(offset + 1)
        return CFiniteRecurrence(1, (0,), tuple(seed), offset)
    coefficients = tuple(normalize_scalar(-c / d0) for c in f.denominator.coefficients[1:])
    offset = max(0, f.numerator.degree + 1 - order)
    seed = f.series(order + offset)
    return CFiniteRecurrence(order, coefficients, tuple(seed), offset)


def stirling_binomial_transform_check(J: int, t: int) -> tuple[int, int]:
    """Both sides of sum_{l=t..J} s(J,l) C(l,t) J^l = (-1)^(J+t) J^t s(J+1,t+1).

    Signed Stirling numbers of the first kind throughout.  Returns
    (lhs, rhs); equality is the point of the identity.
    """
    if J < 1 or not 0 <= t <= J:
        raise ValueError("need J >= 1 and 0 <= t <= J")
    lhs = sum(stirling1_signed(J, l) * binomial(l, t) * J**l for l in range(t, J + 1))
    rhs = (-1) ** (J + t) * J**t * stirling1_signed(J + 1, t + 1)
    return lhs, rhs


def stirling_omega_identity_check(n: int) -> tuple[Polynomial, Polynomial]:
    """Both sides of x^n = (1/n!) sum_k s(n,k) omega_k(x).

    Returns (monomial, reconstruction); equality follows from the
    orthogonality of the two Stirling kinds.
    """
    _check_nonnegative("n", n)
    return Polynomial.monomial(1, n), _omega_sum([stirling1_signed(n, k) for k in range(n + 1)])
