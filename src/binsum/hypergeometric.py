"""Terminating generalized hypergeometric series over exact rationals.

A series pFq(a_1..a_p; b_1..b_q | 1) terminates when some numerator parameter
is a nonpositive integer.  The sum here runs through the largest order any
such parameter imposes, so later parameters cannot silently truncate earlier
nonzero terms.  Every series the package evaluates is at unit argument.

Terms are carried by their ratio (Petkovsek-Wilf-Zeilberger, A = B, ch. 3):

  t_i / t_(i-1) = prod(a + i - 1) / (i * prod(b + i - 1))

With every parameter written p/d, each factor a + i - 1 is the integer
p + (i-1)*d over d, so the loop runs on integers only: the d's fold into one
integer scale on each side, and the partial sums share one integer
denominator until a single Fraction is built at the end.

That loop is _series_sum, over (p, d) pairs.  hyp_terminating is its
validated public entry; no route calls it, because each series family in
sequences writes its parameters as pairs and calls _series_sum directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .combinatorics import Scalar, _refuse_float, normalize_scalar
from .errors import NonTerminatingSeriesError


def termination_order(numerator_params: Sequence[Scalar]) -> int:
    """Largest -a over nonpositive-integer numerator parameters a."""
    orders = []
    for a in numerator_params:
        a = _refuse_float("a series parameter", a)
        if a.denominator == 1 and a.numerator <= 0:
            orders.append(-a.numerator)
    if not orders:
        raise NonTerminatingSeriesError(
            f"no nonpositive integer among numerator parameters {list(numerator_params)}"
        )
    return max(orders)


def hyp_terminating(
    numerator_params: Sequence[Scalar], denominator_params: Sequence[Scalar]
) -> Scalar:
    """Sum the terminating series at unit argument.

    Each parameter is an int or a Fraction and is read through its
    numerator and denominator, so none is rebuilt.

    A term whose denominator Pochhammer product vanishes contributes zero
    (the 1/infinity convention for a pole sitting under a finite numerator),
    also when its numerator vanishes too.

    A nonpositive integer denominator parameter b makes (b)_i vanish for every
    i >= 1 - b, so the first such index ends the sum; a vanishing numerator
    factor makes every later term zero.
    """
    dens = [_refuse_float("a series parameter", b) for b in denominator_params]
    nums = list(numerator_params)
    # termination_order refuses a bad numerator parameter and a series that
    # does not terminate
    termination_order(nums)
    total, scale = _series_sum(
        [(a.numerator, a.denominator) for a in nums],
        [(b.numerator, b.denominator) for b in dens],
    )
    return normalize_scalar(Fraction(total, scale))


def _series_sum(nums: Sequence[tuple], dens: Sequence[tuple]) -> tuple:
    """(total, scale) with total / scale the terminating series at unit
    argument whose parameters are the (p, d) pairs p/d, d > 0.

    A pair need not be in lowest terms, so p/d is a nonpositive integer when
    p <= 0 and d divides p.  Some numerator pair must be one.
    """
    order = max(-p // d for p, d in nums if p <= 0 and p % d == 0)
    pole = order + 1
    for p, d in dens:
        if p <= 0 and p % d == 0:
            pole = min(pole, 1 - p // d)

    # factor i of a = p/d is (p + (i-1)*d)/d = ((p-d) + i*d)/d
    num_steps = [(p - d, d) for p, d in nums]
    den_steps = [(p - d, d) for p, d in dens]
    num_scale = math.prod(d for _, d in dens)
    den_scale = math.prod(d for _, d in nums)
    # invariant: t_i = term / scale and the partial sum is total / scale
    term = total = scale = 1
    for i in range(1, min(order, pole - 1) + 1):
        top = num_scale
        for offset, step in num_steps:
            top *= offset + i * step
        if top == 0:
            break
        bottom = den_scale * i
        for offset, step in den_steps:
            bottom *= offset + i * step
        term *= top
        total = total * bottom + term
        scale *= bottom
    return total, scale
