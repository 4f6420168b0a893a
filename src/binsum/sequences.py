"""The three sequence families and the identities relating them.

Families, in the notation used throughout the package:

  a(k, q; m) = sum_{j=0..m} sum_{i=0..j} (-1)^(j-i) C(m,j) C(j,i) C(j+k+q*i, j+k)
  b(k, q; j) = sum_{i=0..j} (-1)^i C(j,i) C(j+k+q*i, j+k)
  c(J, q; i) = C(J+q*i, J)

a is the inverse binomial transform of b, collapses to a single sum, and both
a and b have terminating hypergeometric forms for integer q.  Every family
therefore has at least two independent evaluation routes, which the
verification suites compare exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul, sub

from .combinatorics import (
    Scalar,
    _refuse_float,
    alternating_binomial_sum,
    binomial,
    factorial,
    normalize_scalar,
    stirling2,
)
from .errors import UnsupportedParameterError
from .hypergeometric import _series_sum


def _check_nonnegative(name: str, value: int) -> int:
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _check_q(q: Scalar) -> Scalar:
    # an int skips the Fraction round trip, which nearly doubles a small c term's cost
    if type(q) is not int:
        q = normalize_scalar(Fraction(_refuse_float("q", q)))
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    return q


def _require_integer_q(q: Scalar, context: str) -> int:
    q = _check_q(q)
    if not isinstance(q, int):
        raise UnsupportedParameterError(f"{context} requires integer q, got {q}")
    return q


def as_integer(value: Scalar) -> int:
    """Assert a provably integral value really is integral and return it as int."""
    value = normalize_scalar(value)
    if not isinstance(value, int):
        raise ValueError(f"expected an integer value, got {value}")
    return value


def _binomial_transform(values: list) -> list:
    """sum_{j=0..m} (-1)^j C(m, j) values[j] for each m < len(values).

    Entry m is the m-th difference at 0 under the step v_j - v_{j+1}, which
    is (-1)^m times the forward one (Graham, Knuth & Patashnik, Concrete
    Mathematics, eq. 5.40), so one difference table gives every entry.  The
    values go over the lcm of their denominators once, so the table is in
    int; integer values skip the scaling.
    """
    denominator = math.lcm(*(v.denominator for v in values if type(v) is not int))
    if denominator != 1:
        values = [v.numerator * (denominator // v.denominator) for v in values]
    heads = []
    while values:
        heads.append(values[0])
        values = list(map(sub, values, values[1:]))
    if denominator == 1:
        return heads
    return [normalize_scalar(Fraction(head, denominator)) for head in heads]


def a_double_sum(k: int, q: Scalar, m: int) -> Scalar:
    """The defining double sum for a(k, q; m): entry m of a_double_sum_terms."""
    _check_nonnegative("k", k)
    _check_nonnegative("m", m)
    return a_double_sum_terms(k, q, m + 1)[m]


def a_double_sum_terms(k: int, q: Scalar, n: int) -> list:
    """a(k, q; 0..n-1) by the defining double sum.  Rational q is allowed.

    The inner sum over i does not depend on m.  It is (-1)^j times
    b(k, q; j) by definition, so b's carried prefix gives it for every j at
    once and each outer sum is the m-th difference of that list.
    """
    return _binomial_transform(b_direct_terms(k, q, n))


def a_single_sum(k: int, q: Scalar, m: int) -> Scalar:
    """Single-sum reduction: sum_i (-1)^(m-i) C(m,i) C(k+(q+1)i, k+m).

    Equals a_double_sum for every rational q >= 0.  The paper proves the
    two equal at integer q >= 0.  For fixed k and m both are polynomials in
    q, because C(top, bottom) with integer bottom is a polynomial in top,
    so their difference is a polynomial with infinitely many zeros, hence
    zero (Kauers & Paule, The Concrete Tetrahedron, ch. 4).
    """
    _check_nonnegative("k", k)
    _check_nonnegative("m", m)
    q = _check_q(q)
    total = alternating_binomial_sum(m, k, q + 1, k + m)
    return -total if m & 1 else total


def _carried_sums(k: int, step: Scalar, n: int, rise: int) -> list:
    """sum_i (-1)^i C(m, i) C(k + rise*m + step*i, k + m) for each m < n.

    From index m-1 to m the bottom b = k+m rises by one.  At rise 0 the top
    t stays, so C(t, b) = C(t, b-1) (t-b+1) / b; at rise 1 it rises too, so
    C(t+1, b) = C(t, b-1) (t+1) / b (Petkovsek, Wilf & Zeilberger, A = B,
    ch. 3).  Either way C(t, b) gains f = lead + step*i over b, with lead =
    1-m at rise 0 and k+m at rise 1, and C(m, i) gains m / (m-i).

    At step p/d, C(N/d, b) D_b is an integer for every integer N, where
    D_b = d^b gcd(b!, d^b): a prime not dividing d never divides the
    denominator of C(N/d, b), a prime l dividing d divides it at most
    b v_l(d) + v_l(b!) times, and gcd(b!, d^b) is the part of b! made of
    d's primes.  Column i holds the integer C(m, i) C(t, b) D_b.  D_b gains
    d times the part of b made of d's primes, so the column steps by one
    exact m (lead*d + p*i) // ((m-i) unit), unit being b with d's primes
    divided out.  New column m is C(t, b) at d = 1, else the falling product
    of t*d in steps of d over the part of b! prime to d, and it carries its
    sign (-1)^m; the exact steps keep it.  Each sum is the columns' total
    over D_b; at an integer step D_b = 1 and unit = b, so it is an int.
    """
    p, d = step.numerator, step.denominator
    # for b below 2^e, gcd(b, d^e) is the part of b made of d's primes
    powers = d ** (k + n).bit_length()
    made_of_d = math.gcd(math.factorial(k), d**k)
    prime_to_d, denominator = math.factorial(k) // made_of_d, d**k * made_of_d
    columns: list = []
    sums = []
    for m in range(n):
        bottom = k + m
        if m:
            unit = bottom // math.gcd(bottom, powers)
            prime_to_d *= unit
            denominator *= d * (bottom // unit)
            lead = (bottom if rise else 1 - m) * d
            # column i gains m (lead + p*i) over (m-i) unit; p = 0 only for b at q = 0
            gains = range(m * lead, m * (lead + p * m), m * p) if p else repeat(m * lead, m)
            columns = list(map(floordiv, map(mul, columns, gains), range(m * unit, 0, -unit)))
        top = (k + rise * m) * d + p * m
        if d == 1:
            column = math.comb(top, bottom)
        else:
            column = math.prod(range(top, top - bottom * d, -d)) // prime_to_d
        columns.append(-column if m & 1 else column)
        total = sum(columns)
        sums.append(total if denominator == 1 else normalize_scalar(Fraction(total, denominator)))
    return sums


def a_single_sum_terms(k: int, q: Scalar, n: int) -> list:
    """a(k, q; 0..n-1) by the single sum: _carried_sums at step q+1 and
    rise 0, the tops k + (q+1)i fixed, with odd-index sums negated."""
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    q = _check_q(q)
    sums = _carried_sums(k, q + 1, n, 0)
    return [-total if m & 1 else total for m, total in enumerate(sums)]


def b_direct(k: int, q: Scalar, j: int) -> Scalar:
    """The defining alternating sum for b(k, q; j).  Rational q is allowed.

    At integer q it is one call of the alternating-sum kernel.  At q = p/d
    each term is one binomial(j + k + q*i, j + k) call, and the reduced
    denominator of each divides D = d^(j+k) (j+k)!, so the terms are summed
    in int over D and one Fraction is built at the end (Petkovsek, Wilf &
    Zeilberger, A = B, ch. 3).
    """
    _check_nonnegative("k", k)
    _check_nonnegative("j", j)
    q = _check_q(q)
    bottom = j + k
    if type(q) is int:
        return alternating_binomial_sum(j, bottom, q, bottom)
    total = 0
    p, d = q.numerator, q.denominator
    denominator = d**bottom * math.factorial(bottom)
    for i in range(j + 1):
        value = binomial(Fraction(bottom * d + p * i, d), bottom)
        term = binomial(j, i) * value.numerator * (denominator // value.denominator)
        total += -term if i & 1 else term
    return normalize_scalar(Fraction(total, denominator))


def b_direct_terms(k: int, q: Scalar, n: int) -> list:
    """b(k, q; 0..n-1) by the defining sum: _carried_sums at step q and
    rise 1, the tops j+k+qi rising with the index j."""
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    q = _check_q(q)
    return _carried_sums(k, q, n, 1)


def a_from_b(k: int, q: Scalar, m: int) -> Scalar:
    """a as the sign-alternating binomial transform of b: entry m of a_from_b_terms."""
    _check_nonnegative("m", m)
    return a_from_b_terms(k, q, m + 1)[m]


def a_from_b_terms(k: int, q: Scalar, n: int) -> list:
    """a(k, q; 0..n-1) as b's m-th differences, one b_direct call per index."""
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    q = _check_q(q)
    return _binomial_transform([b_direct(k, q, j) for j in range(n)])


def b_k1_closed(k: int, j: int) -> int:
    """Closed form at q=1: b(k, 1; j) = C(-k-1, j) = (-1)^j C(k+j, j)."""
    _check_nonnegative("k", k)
    _check_nonnegative("j", j)
    return binomial(-k - 1, j)


def c_direct(J: int, q: Scalar, i: int) -> Scalar:
    """The stepped binomial c(J, q; i) = C(J + q*i, J).  Rational q is allowed."""
    _check_nonnegative("J", J)
    q = _check_q(q)
    _check_nonnegative("i", i)
    return binomial(J + q * i, J)


def c_direct_terms(J: int, q: Scalar, n: int) -> list:
    """c(J, q; 0..n-1), c_direct's checks made once.  At integer q the tops
    J + q*i step by q, so each term is one math.comb; at rational q each is
    one binomial call."""
    _check_nonnegative("J", J)
    q = _check_q(q)
    _check_nonnegative("n", n)
    if type(q) is not int:
        return [binomial(J + q * i, J) for i in range(n)]
    tops = range(J, J + q * n, q) if q else repeat(J, n)
    return list(map(math.comb, tops, repeat(J, n)))


def _a_series(k: int, q: Scalar, indices) -> list:
    """a(k, q; m) for each m in indices by a_hypergeom's series, q checked
    once and the parameters written as (p, d) pairs over q+1 for _series_sum."""
    q = _require_integer_q(q, "the terminating-series route")
    r = q + 1
    terms = []
    for m in indices:
        base = (1 - m) * r
        nums = [(-m, 1)] + [(base - (l + 1 - m), r) for l in range(r)]
        dens = [(base - (k + 1 + l), r) for l in range(r)]
        total, scale = _series_sum(nums, dens)
        total *= math.comb(m * r + k, k + m)
        quotient, rest = divmod(total, scale)
        terms.append(Fraction(total, scale) if rest else quotient)
    return terms


def a_hypergeom(k: int, q: int, m: int) -> Scalar:
    """a(k, q; m) through its terminating (q+2)F(q+1) form; integer q only.

    The front factor is C(m(q+1)+k, k+m); the series parameters are
    -m and 1-(l+1-m)/(q+1)-m over 1-(k+1+l)/(q+1)-m for l = 0..q, at unit
    argument.  The series terminates at term m, and a denominator parameter b
    first vanishes at term 1-b = m+(k+1+l)/(q+1) > m, so no pole is reached.
    """
    _check_nonnegative("k", k)
    _check_nonnegative("m", m)
    return _a_series(k, q, (m,))[0]


def a_hypergeom_terms(k: int, q: int, n: int) -> list:
    """a(k, q; 0..n-1) by a_hypergeom's series, its checks made once."""
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    return _a_series(k, q, range(n))


def _b_series(k: int, q: Scalar, indices) -> list:
    """b(k, q; j) for each j in indices by b_hypergeom's series, q checked
    once and the parameters written as (p, d) pairs over q for _series_sum."""
    q = _require_integer_q(q, "the terminating-series route")
    if q < 1:
        raise UnsupportedParameterError(
            "the terminating-series route for family b requires q >= 1"
        )
    dens = [(l, q) for l in range(1, q + 1)]
    terms = []
    for j in indices:
        total, scale = _series_sum([(-j, 1)] + [(k + j + l, q) for l in range(1, q + 1)], dens)
        quotient, rest = divmod(total, scale)
        terms.append(Fraction(total, scale) if rest else quotient)
    return terms


def b_hypergeom(k: int, q: int, j: int) -> Scalar:
    """b(k, q; j) through its terminating (q+1)Fq form; integer q >= 1 only.

    Parameters are -j and (k+j+l)/q for l = 1..q over l/q for l = 1..q, at
    unit argument.  All denominator parameters are positive, so no poles.
    """
    _check_nonnegative("k", k)
    _check_nonnegative("j", j)
    return _b_series(k, q, (j,))[0]


def b_hypergeom_terms(k: int, q: int, n: int) -> list:
    """b(k, q; 0..n-1) by b_hypergeom's series, its checks made once."""
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    return _b_series(k, q, range(n))


def zero_sum_identity(j: int, q: int) -> int:
    """sum_{i=0..j+1} (-1)^i C(j+1,i) C(j+i*q, j); identically zero."""
    _check_nonnegative("j", j)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    return alternating_binomial_sum(j + 1, j, q, j)


def beta_integral(j: int, q: int) -> Fraction:
    """Exact value of the integral of t^j ((1-t^q)/(1-t))^(j+1) over [0, 1].

    Expands (1 + t + ... + t^(q-1))^(j+1) by the multinomial theorem and
    integrates termwise: each composition j_0+...+j_{q-1} = j+1 contributes
    multinomial(j+1; parts) / (1 + j + w), w = j_1 + 2 j_2 + ... + (q-1) j_{q-1}.
    The compositions are walked one part at a time, each multinomial carried
    as the product of C(left, part) over the parts placed, and added to an
    int count for its weight w; the counts go over the lcm of j+1..q(j+1)
    once.  Always a positive rational.
    """
    _check_nonnegative("j", j)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    last = q - 1
    counts = [0] * (last * (j + 1) + 1)
    # (next part's index l, parts left, weight so far, multinomial so far)
    stack = [(0, j + 1, 0, 1)]
    while stack:
        part, left, weight, coefficient = stack.pop()
        if part == last:
            counts[weight + part * left] += coefficient
            continue
        for size in range(left + 1):
            stack.append(
                (part + 1, left - size, weight + part * size, coefficient * math.comb(left, size))
            )
    denominator = math.lcm(*range(j + 1, q * (j + 1) + 1))
    total = sum(count * (denominator // (1 + j + weight)) for weight, count in enumerate(counts))
    return Fraction(total, denominator)


def power_via_stirling(base: int, n: int) -> int:
    """base^n rebuilt as sum_j S2(n,j) C(base,j) j!."""
    _check_nonnegative("base", base)
    _check_nonnegative("n", n)
    return sum(stirling2(n, j) * binomial(base, j) * factorial(j) for j in range(n + 1))
