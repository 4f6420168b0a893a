"""Exact combinatorial primitives: factorials, binomials, Pochhammer symbols,
Stirling numbers.

Scalars are plain ``int`` and ``fractions.Fraction``; no floating point
anywhere.  Integral results come back as ``int``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from math import factorial  # public as binsum.factorial; ValueError for n < 0
from typing import Union

Scalar = Union[int, Fraction]


def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _refuse_float(name: str, value):
    """value, if it is an int or a Fraction; anything else is a one-line ValueError.

    A float is named with its value: Fraction(0.1) is 3602879701896397/2**55,
    not 1/10.  A str or a Decimal is refused too, not parsed.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise ValueError(f"{name} must be an int or a Fraction, not the float {value!r}")
    raise ValueError(f"{name} must be an int or a Fraction, not a {type(value).__name__}")


def binomial(top: Scalar, bottom: int) -> Scalar:
    """Generalized binomial coefficient top over bottom.

    Defined through the falling factorial: top(top-1)...(top-bottom+1)/bottom!.
    Total over rational and negative tops; bottom < 0 gives 0.  Integer tops
    go to math.comb, negative ones through the reflection
    C(-n, k) = (-1)^k C(n+k-1, k).  A rational top p/d multiplies out the
    integer falling-factorial product (p)(p-d)...(p-(bottom-1)d) over the one
    denominator d^bottom * bottom!, and reduces once.
    """
    if bottom < 0:
        return 0
    # plain ints skip normalize_scalar, whose isinstance(x, Fraction) is an
    # ABC check and costs more than math.comb on small tops
    if type(top) is not int:
        top = normalize_scalar(_refuse_float("a binomial top", top))
    if isinstance(top, int):
        if top >= 0:
            return math.comb(top, bottom)
        reflected = math.comb(bottom - top - 1, bottom)
        return -reflected if bottom & 1 else reflected
    p, d = top.numerator, top.denominator
    product = math.prod(range(p, p - bottom * d, -d))
    return normalize_scalar(Fraction(product, d**bottom * math.factorial(bottom)))


def alternating_binomial_sum(n: int, offset: int, step: Scalar, bottom: int) -> Scalar:
    """sum_{i=0..n} (-1)^i C(n, i) C(offset + step*i, bottom), exactly.

    n, offset and bottom are nonnegative ints and step is a rational >= 0,
    so every top is nonnegative.  At an int step each term is a product of
    two math.comb values.  At step = p/d the top (offset*d + p*i)/d has the
    integer falling product N (N-d) ... (N-(bottom-1)d) over d^bottom bottom!,
    with N = offset*d + p*i; the products are summed in int and a single
    Fraction is built over that shared denominator (the trick
    hyp_terminating uses; Petkovsek, Wilf & Zeilberger, A = B, ch. 3).
    """
    if n < 0 or offset < 0 or bottom < 0:
        raise ValueError(
            f"alternating_binomial_sum needs n, offset, bottom >= 0, got {n}, {offset}, {bottom}"
        )
    comb = math.comb
    total = 0
    if type(step) is int:
        for i in range(n + 1):
            term = comb(n, i) * comb(offset + step * i, bottom)
            total += -term if i & 1 else term
        return total
    p, d = _refuse_float("step", step).numerator, step.denominator
    start, stop = offset * d, offset * d - bottom * d
    for i in range(n + 1):
        shift = p * i
        term = comb(n, i) * math.prod(range(start + shift, stop + shift, -d))
        total += -term if i & 1 else term
    return normalize_scalar(Fraction(total, d**bottom * math.factorial(bottom)))


def pochhammer(a: Scalar, n: int) -> Scalar:
    """Rising factorial a(a+1)...(a+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError(f"pochhammer is undefined for negative n: {n}")
    _refuse_float("a Pochhammer base", a)
    result: Scalar = 1
    for i in range(n):
        result = result * (a + i)
    return normalize_scalar(result)


# (u, v) of T(m, k) = u T(m-1, k) + v T(m-1, k-1), each triangle with T(0, 0) = 1
_WEIGHTS = {
    "stirling2": lambda m, k: (k, 1),
    "stirling1_signed": lambda m, k: (1 - m, 1),
}
_ROWS: defaultdict[str, dict[int, tuple[int, ...]]] = defaultdict(lambda: {0: (1,)})


def _row_step(name: str, row: list[int], m: int) -> list[int]:
    """T(m, 0..m) from row = T(m-1, 0..m-1)."""
    weights = _WEIGHTS[name]
    pairs = enumerate(zip(row + [0], [0] + row))
    return [u * a + v * b for k, (a, b) in pairs for u, v in [weights(m, k)]]


def _row(name: str, n: int) -> tuple[int, ...]:
    """T(n, 0..n), built in a loop on the largest cached row below n, so rows
    0..n asked for in order take n row steps; only rows asked for are kept."""
    rows = _ROWS[name]
    if n not in rows:
        row = list(rows[max(m for m in rows if m < n)])
        for m in range(len(row), n + 1):
            row = _row_step(name, row, m)
        rows[n] = tuple(row)
    return rows[n]


def _entry(name: str, n: int, k: int) -> int:
    """T(n, k) of triangle name; 0 outside 0 <= k <= n, an error for any k at
    n < 0 and for an index that is not an int."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError(f"{name} needs int n and k, got {n!r} and {k!r}")
    if n < 0:
        raise ValueError(f"{name} is undefined for negative n: {n}")
    return _row(name, n)[k] if 0 <= k <= n else 0


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n elements into k blocks."""
    return _entry("stirling2", n, k)


def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind.

    Coefficient of z^k in the falling factorial z(z-1)...(z-n+1); the sign
    is (-1)^(n-k).
    """
    return _entry("stirling1_signed", n, k)
