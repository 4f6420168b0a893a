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
    # termination_order refuses a bad numerator parameter
    order = termination_order(nums)
    pole = order + 1
    for b in dens:
        if b.denominator == 1 and b.numerator <= 0:
            pole = min(pole, 1 - b.numerator)

    # factor i of a = p/d is (p + (i-1)*d)/d = ((p-d) + i*d)/d
    num_steps = [(a.numerator - a.denominator, a.denominator) for a in nums]
    den_steps = [(b.numerator - b.denominator, b.denominator) for b in dens]
    num_scale = math.prod(b.denominator for b in dens)
    den_scale = math.prod(a.denominator for a in nums)
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
    return normalize_scalar(Fraction(total, scale))
