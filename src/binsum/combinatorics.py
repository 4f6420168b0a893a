"""Exact combinatorial primitives: factorials, binomials, Pochhammer symbols,
Stirling and Eulerian numbers, multinomials.

Scalars are plain ``int`` and ``fractions.Fraction``; no floating point
anywhere.  Integral results come back as ``int``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

Scalar = Union[int, Fraction]


def normalize_scalar(x: Scalar) -> Scalar:
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n: {n}")
    return math.factorial(n)


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
        top = normalize_scalar(top)
    if isinstance(top, int):
        if top >= 0:
            return math.comb(top, bottom)
        reflected = math.comb(bottom - top - 1, bottom)
        return -reflected if bottom & 1 else reflected
    p, d = top.numerator, top.denominator
    product = math.prod(range(p, p - bottom * d, -d))
    return normalize_scalar(Fraction(product, d**bottom * math.factorial(bottom)))


def pochhammer(a: Scalar, n: int) -> Scalar:
    """Rising factorial a(a+1)...(a+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError(f"pochhammer is undefined for negative n: {n}")
    result: Scalar = 1
    for i in range(n):
        result = result * (a + i)
    return normalize_scalar(result)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n elements into k blocks."""
    if n < 0:
        raise ValueError(f"stirling2 is undefined for negative n: {n}")
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind.

    Coefficient of z^k in the falling factorial z(z-1)...(z-n+1); the sign
    is (-1)^(n-k).
    """
    if n < 0:
        raise ValueError(f"stirling1_signed is undefined for negative n: {n}")
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return stirling1_signed(n - 1, k - 1) - (n - 1) * stirling1_signed(n - 1, k)


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Eulerian number: permutations of n elements with k descents."""
    if n < 0:
        raise ValueError(f"eulerian is undefined for negative n: {n}")
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k >= n:
        return 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...) with sum(parts) == n required."""
    if n < 0 or any(p < 0 for p in parts):
        raise ValueError("multinomial arguments must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result
