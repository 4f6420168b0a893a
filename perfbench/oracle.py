"""Independent output oracle for the binsum benchmark.

Nothing here imports binsum.  Terms come from the defining sums, evaluated
with ``math.comb`` for integer q and with this module's own falling-factorial
binomial over ``Fraction`` for rational q:

  a(k, q; m) = sum_{j<=m} sum_{i<=j} (-1)^(j-i) C(m,j) C(j,i) C(j+k+q*i, j+k)
  b(k, q; j) = sum_{i<=j} (-1)^i C(j,i) C(j+k+q*i, j+k)
  c(J, q; i) = C(J+q*i, J)

Beyond the terms, the checks use properties every correct output has:

  * a is annihilated by (1-(q+1)E^-1)^(k+1), b by (1+qE^-1)^(k+1) and c by
    (1-E^-1)^(J+1), from index k+1 (J+1) on.  With k+1 (J+1) oracle terms
    this pins a whole term list in O(nk) operations.
  * The denominators of A, B and C divide (1-(q+1)z)^(k+1), (1+qz)^(k+1) and
    (1-z)^(J+1).
  * A function's own series, and a recurrence's terms, equal oracle terms
    well past the window the function was fitted or seeded on.

Every check returns None when the output is right and a one-line complaint
when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

# a fitted or seeded object is compared this many terms past its own window
MARGIN = 20


def rational_binomial(top: Fraction, bottom: int) -> Fraction:
    """C(top, bottom) as the falling factorial top(top-1)...(top-bottom+1)/bottom!."""
    product = Fraction(1)
    for i in range(bottom):
        product *= top - i
    return product / factorial(bottom)


def _binomial(top, bottom: int):
    if isinstance(top, int):
        return comb(top, bottom)
    if top.denominator == 1:
        return comb(int(top), bottom)
    return rational_binomial(top, bottom)


@lru_cache(maxsize=256)
def _inner_sums(k: int, q, n: int) -> tuple:
    """sum_{i<=j} (-1)^(j-i) C(j,i) C(j+k+q*i, j+k) for j < n."""
    return tuple(
        sum((-1) ** (j - i) * comb(j, i) * _binomial(j + k + q * i, j + k) for i in range(j + 1))
        for j in range(n)
    )


def a_terms(k: int, q, n: int) -> list:
    """a(k, q; m) for m < n by the defining double sum (inner sums shared over m)."""
    inner = _inner_sums(k, q, n)
    return [sum(comb(m, j) * inner[j] for j in range(m + 1)) for m in range(n)]


def b_terms(k: int, q, n: int) -> list:
    """b(k, q; j) for j < n by the defining alternating sum."""
    return [
        sum((-1) ** i * comb(j, i) * _binomial(j + k + q * i, j + k) for i in range(j + 1))
        for j in range(n)
    ]


def c_terms(J: int, q: int, n: int) -> list:
    """c(J, q; i) = C(J + q*i, J) for i < n."""
    return [comb(J + q * i, J) for i in range(n)]


def terms(family: str, param: int, q, n: int) -> list:
    """Oracle terms of family a, b or c (upper or lower case)."""
    family = family.lower()
    if family == "a":
        return a_terms(param, q, n)
    if family == "b":
        return b_terms(param, q, n)
    return c_terms(param, q, n)


def annihilator(family: str, param: int, q) -> tuple:
    """(root, order): the family is killed by (1 - root*E^-1)^order."""
    family = family.lower()
    if family == "a":
        return q + 1, param + 1
    if family == "b":
        return -q, param + 1
    return 1, param + 1


def denominator_bound(family: str, param: int, q) -> list:
    """Ascending coefficients of (1 - root*z)^order, which every denominator divides."""
    root, order = annihilator(family, param, q)
    return [Fraction(comb(order, i) * (-root) ** i) for i in range(order + 1)]


# ------------------------------------------------------------------ checks


def check_terms(family: str, param: int, q, values: list) -> str | None:
    """A term list is right when it starts with the oracle terms and the
    family's annihilator kills it from then on."""
    root, order = annihilator(family, param, q)
    head = terms(family, param, q, min(order, len(values)))
    for index, (got, want) in enumerate(zip(values, head)):
        if got != want:
            return f"term {index} is {got}, the defining sum gives {want}"
    weights = [comb(order, i) * (-root) ** i for i in range(order + 1)]
    for n in range(order, len(values)):
        residual = sum(w * values[n - i] for i, w in enumerate(weights))
        if residual != 0:
            return f"terms {n - order}..{n} are not annihilated by (1 - {root}E^-1)^{order}"
    return None


def _remainder(dividend: list, divisor: list) -> list:
    """Remainder of ascending-coefficient polynomials over Fraction."""
    divisor = _trim(divisor)
    rest = _trim(list(dividend))
    lead = divisor[-1]
    while len(rest) >= len(divisor):
        factor = rest[-1] / lead
        shift = len(rest) - len(divisor)
        for i, c in enumerate(divisor):
            rest[shift + i] -= factor * c
        rest = _trim(rest[:-1])
    return rest


def _trim(coefficients: list) -> list:
    coefficients = [Fraction(c) for c in coefficients]
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return coefficients


def series(num: list, den: list, n: int) -> list:
    """First n Taylor coefficients of num/den by long division."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = []
    for i in range(n):
        value = (num[i] if i < len(num) else 0) - sum(
            den[j] * out[i - j] for j in range(1, min(i, len(den) - 1) + 1)
        )
        out.append(value / den[0])
    return out


def check_gf(family: str, param: int, q, num: list, den: list, window: int) -> str | None:
    """A generating function is right when its denominator divides the
    family's bound and its series matches the oracle MARGIN terms past window."""
    den = _trim(den)
    if not den or den[0] == 0:
        return "denominator vanishes at z = 0"
    if _remainder(denominator_bound(family, param, q), den):
        return f"denominator {den} does not divide the family's bound"
    horizon = window + MARGIN
    want = terms(family, param, q, horizon)
    got = series(num, den, horizon)
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"series term {index} is {g}, the defining sum gives {w}"
    return None


def check_recurrence(family: str, param: int, q, coeffs: list, init: list, offset: int) -> str | None:
    """A recurrence is right when its characteristic polynomial divides the
    family's bound and it reproduces the oracle MARGIN terms past its seed."""
    order = len(coeffs)
    if len(init) != order + offset:
        return f"{len(init)} seed terms for order {order} and offset {offset}"
    characteristic = [Fraction(1)] + [-Fraction(c) for c in coeffs]
    if any(coeffs) and _remainder(denominator_bound(family, param, q), characteristic):
        return "characteristic polynomial does not divide the family's bound"
    horizon = len(init) + MARGIN
    values = [Fraction(t) for t in init]
    while len(values) < horizon:
        n = len(values)
        values.append(sum(Fraction(c) * values[n - i] for i, c in enumerate(coeffs, start=1)))
    want = terms(family, param, q, horizon)
    for index, (g, w) in enumerate(zip(values, want)):
        if g != w:
            return f"recurrence term {index} is {g}, the defining sum gives {w}"
    return None
