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
import operator
from fractions import Fraction

from .combinatorics import (
    Scalar,
    _refuse_float,
    alternating_binomial_sum,
    binomial,
    factorial,
    multinomial,
    normalize_scalar,
    stirling2,
)
from .errors import UnsupportedParameterError
from .hypergeometric import hyp_terminating


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


def _per_index(evaluate):
    """The prefix function (k, q, n) -> [evaluate(k, q, 0..n-1)] of a point route."""
    return lambda k, q, n: [evaluate(k, q, i) for i in range(n)]


def _signed_binomial_rows(n: int):
    """The rows (-1)^j C(m, j), j = 0..m, for m < n, each from the one before."""
    row = [1]
    for m in range(n):
        if m:
            row = [a - b for a, b in zip(row + [0], [0] + row)]
        yield row


def _signed_binomial_sum(row: list, numerators: list, denominator: int) -> Scalar:
    """sum_j (-1)^j C(m, j) numerators[j] over denominator, for row m.

    One pass in int, then one Fraction: each row of _binomial_transform,
    and each sum over i of _carried_sums at a rational step.
    """
    total = sum(map(operator.mul, row, numerators))
    if denominator == 1:
        return total
    return normalize_scalar(Fraction(total, denominator))


def _binomial_transform(values: list) -> list:
    """sum_{j=0..m} (-1)^j C(m, j) values[j] for each m < len(values).

    The values go over the lcm of their denominators once, so every row is
    summed in int; integer values skip the scaling.
    """
    denominator = math.lcm(*(v.denominator for v in values if type(v) is not int))
    if denominator != 1:
        values = [v.numerator * (denominator // v.denominator) for v in values]
    rows = _signed_binomial_rows(len(values))
    return [_signed_binomial_sum(row, values, denominator) for row in rows]


def a_double_sum(k: int, q: Scalar, m: int) -> Scalar:
    """The defining double sum for a(k, q; m): entry m of a_double_sum_terms."""
    _check_nonnegative("k", k)
    _check_nonnegative("m", m)
    return a_double_sum_terms(k, q, m + 1)[m]


def a_double_sum_terms(k: int, q: Scalar, n: int) -> list:
    """a(k, q; 0..n-1) by the defining double sum.  Rational q is allowed.

    The inner sum over i does not depend on m.  It is (-1)^j times
    b(k, q; j), so the kernel evaluates b once per j for the whole prefix
    and each outer sum is a row of the binomial transform of that list.
    """
    _check_nonnegative("k", k)
    _check_nonnegative("n", n)
    q = _check_q(q)
    return _binomial_transform([alternating_binomial_sum(j, j + k, q, j + k) for j in range(n)])


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
    ch. 3).  Either way column i steps by the factor f = lead + step*i over
    b, with lead = 1-m at rise 0 and k+m at rise 1, and column m is new.

    At an integer step column i is the whole term C(m, i) C(t, b), which
    also gains C(m, i) / C(m-1, i) = m / (m-i): one exact // per column,
    since the quotient is a product of two binomials, and each sum is the
    even columns less the odd ones.  At step p/d column i is the integer
    falling product of N = (k + rise*m)d + pi in steps of d, which gains the
    factor d*f, and the whole row shares the denominator d^b b!, as in
    alternating_binomial_sum; each sum is the signed sum over the row of
    C(m, i) by _signed_binomial_sum.  Either way each sum is still the
    literal signed sum over i.
    """
    columns: list = []
    sums = []
    if type(step) is int:
        for m in range(n):
            bottom = k + m
            lead = bottom if rise else 1 - m
            columns = [
                c * m * (lead + step * i) // ((m - i) * bottom) for i, c in enumerate(columns)
            ]
            columns.append(math.comb(k + rise * m + step * m, bottom))
            sums.append(sum(columns[0::2]) - sum(columns[1::2]))
        return sums
    p, d = step.numerator, step.denominator
    denominator = d**k * math.factorial(k)
    for m, row in enumerate(_signed_binomial_rows(n)):
        bottom = k + m
        if m:
            denominator *= d * bottom
            lead = bottom if rise else 1 - m
            columns = [c * (lead * d + p * i) for i, c in enumerate(columns)]
        top = (k + rise * m) * d + p * m
        columns.append(math.prod(range(top, top - bottom * d, -d)))
        sums.append(_signed_binomial_sum(row, columns, denominator))
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

    Each term is one binomial(j + k + q*i, j + k) call.  At q = p/d the
    top is the Fraction ((j+k)d + pi)/d, whose binomial's reduced
    denominator divides D = d^(j+k) (j+k)!, so the terms are summed in int
    over D and one Fraction is built at the end (Petkovsek, Wilf &
    Zeilberger, A = B, ch. 3).
    """
    _check_nonnegative("k", k)
    _check_nonnegative("j", j)
    q = _check_q(q)
    bottom = j + k
    total = 0
    if type(q) is int:
        for i in range(j + 1):
            term = binomial(j, i) * binomial(bottom + q * i, bottom)
            total += -term if i & 1 else term
        return total
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
    """a(k, q; 0..n-1) as the binomial transform of b, one b_direct call per index."""
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


def a_hypergeom(k: int, q: int, m: int) -> Scalar:
    """a(k, q; m) through its terminating (q+2)F(q+1) form; integer q only.

    The front factor is C(m(q+1)+k, k+m); the series parameters are
    -m and 1-(l+1-m)/(q+1)-m over 1-(k+1+l)/(q+1)-m for l = 0..q, at unit
    argument.  The series terminates at term m, and a denominator parameter b
    first vanishes at term 1-b = m+(k+1+l)/(q+1) > m, so no pole is reached.
    """
    _check_nonnegative("k", k)
    _check_nonnegative("m", m)
    q = _require_integer_q(q, "the terminating-series route")
    front = binomial(m * (q + 1) + k, k + m)
    # 1 - x/(q+1) - m is the one Fraction ((1-m)(q+1) - x)/(q+1)
    base = (1 - m) * (q + 1)
    numerator_params = [-m] + [Fraction(base - (l + 1 - m), q + 1) for l in range(q + 1)]
    denominator_params = [Fraction(base - (k + 1 + l), q + 1) for l in range(q + 1)]
    return normalize_scalar(front * hyp_terminating(numerator_params, denominator_params))


def b_hypergeom(k: int, q: int, j: int) -> Scalar:
    """b(k, q; j) through its terminating (q+1)Fq form; integer q >= 1 only.

    Parameters are -j and (k+j+l)/q for l = 1..q over l/q for l = 1..q, at
    unit argument.  All denominator parameters are positive, so no poles.
    """
    _check_nonnegative("k", k)
    _check_nonnegative("j", j)
    q = _require_integer_q(q, "the terminating-series route")
    if q < 1:
        raise UnsupportedParameterError(
            "the terminating-series route for family b requires q >= 1"
        )
    numerator_params = [-j] + [Fraction(k + j + l, q) for l in range(1, q + 1)]
    denominator_params = [Fraction(l, q) for l in range(1, q + 1)]
    return normalize_scalar(hyp_terminating(numerator_params, denominator_params))


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
    multinomial(j+1; parts) / (1 + j + j_1 + 2 j_2 + ... + (q-1) j_{q-1}).
    Always a positive rational.
    """
    _check_nonnegative("j", j)
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    total = Fraction(0)
    for parts in _compositions(j + 1, q):
        weight = sum(l * parts[l] for l in range(q))
        total += Fraction(multinomial(j + 1, parts), 1 + j + weight)
    return total


def _compositions(total: int, count: int):
    """Yield all tuples of `count` nonnegative integers summing to `total`."""
    if count == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, count - 1):
            yield (first,) + rest


def power_via_stirling(base: int, n: int) -> int:
    """base^n rebuilt as sum_j S2(n,j) C(base,j) j!."""
    _check_nonnegative("base", base)
    _check_nonnegative("n", n)
    return sum(stirling2(n, j) * binomial(base, j) * factorial(j) for j in range(n + 1))
