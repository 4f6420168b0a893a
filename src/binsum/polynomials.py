"""Dense exact polynomials and canonical rational generating functions.

A Polynomial holds integer numerators over one common denominator:
coefficient i is _nums[i] / _den, ascending powers.  The form is canonical,
so structural equality decides equality:

  * _den > 0,
  * gcd(_den, *_nums) == 1,
  * no trailing zeros (the zero polynomial is () over 1).

The arithmetic stays in int.  A product convolves the numerators and
multiplies the denominators, a sum scales both operands to the lcm of their
denominators, and one internal constructor restores the canonical form.
coefficients and coefficient() hand out Fractions, so callers that divide a
coefficient get an exact quotient; int_coefficients() hands an integral
Polynomial's ints out as they are held, and refuses any other.

RationalGF holds a numerator over a denominator c*(b0 + b1*z)^e, a constant
times a power of one linear factor (z^e included): the shape of every
generating function the library builds (Stanley, Enumerative Combinatorics
I, Thm 4.1.1).  Any other denominator is refused with NotALinearPowerError.
The pair is kept in one canonical shape so that structural equality decides
equality of rational functions:

  * the polynomial gcd is divided out,
  * both parts are scaled to integer coefficients with overall content 1,
  * the lowest nonzero denominator coefficient is positive.

The gcd is then a power of b0 + b1*z, found by exact synthetic division in
int while the numerator leaves no remainder; no Fraction is formed.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .combinatorics import Scalar, _refuse_float
from .errors import NotALinearPowerError, NotAPowerSeriesError

CoeffsLike = Union["Polynomial", Sequence[Scalar], int, Fraction]


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums[i] / den as canonical (numerators, denominator); den != 0."""
    while nums and not nums[-1]:
        nums.pop()
    if den != 1:
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    return tuple(nums), den


def _poly(nums: list[int], den: int = 1) -> "Polynomial":
    """The Polynomial with coefficients nums[i] / den."""
    p = object.__new__(Polynomial)
    p._nums, p._den = _canonical(nums, den)
    return p


class Polynomial:
    """Immutable dense polynomial with rational coefficients, held as
    canonical integer numerators over one positive denominator."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable[Scalar] = ()) -> None:
        values = list(coefficients)
        if all(type(c) is int for c in values):
            self._nums, self._den = _canonical(values, 1)
            return
        values = [_refuse_float("a coefficient", c) for c in values]
        den = lcm(*[c.denominator for c in values])
        self._nums, self._den = _canonical(
            [c.numerator * (den // c.denominator) for c in values], den
        )

    @classmethod
    def from_value(cls, value: CoeffsLike) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return _poly([value.numerator], value.denominator)
        # a lone scalar of another type is refused as a coefficient
        return cls(value if isinstance(value, Iterable) else [value])

    @classmethod
    def monomial(cls, coefficient: Scalar, power: int) -> "Polynomial":
        return cls([0] * power + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    def int_coefficients(self) -> tuple[int, ...]:
        """The coefficients of an integral Polynomial as ints; any other raises ValueError."""
        if self._den != 1:
            raise ValueError(f"{self.render()} has a coefficient that is not an integer")
        return self._nums

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._nums):
            return Fraction(self._nums[power], self._den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._nums == other._nums and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.from_value(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as it
        return hash((self._nums, self._den)) if self.degree > 0 else hash(self.coefficient(0))

    def __add__(self, other: CoeffsLike) -> "Polynomial":
        other = Polynomial.from_value(other)
        den = lcm(self._den, other._den)
        a = [c * (den // self._den) for c in self._nums]
        b = [c * (den // other._den) for c in other._nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _poly(a, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _poly([-c for c in self._nums], self._den)

    def __sub__(self, other: CoeffsLike) -> "Polynomial":
        return self + (-Polynomial.from_value(other))

    def __rsub__(self, other: CoeffsLike) -> "Polynomial":
        return Polynomial.from_value(other) + (-self)

    def __mul__(self, other: CoeffsLike) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            scale = other.numerator
            return _poly([c * scale for c in self._nums], self._den * other.denominator)
        other = Polynomial.from_value(other)
        a, b = self._nums, other._nums
        if not a or not b:
            return _poly([])
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for shift, c in enumerate(b):
            if c:
                for i, x in enumerate(a, shift):
                    out[i] += c * x
        return _poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = _poly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def render(self, variable: str = "z") -> str:
        """Human form with explicit * and ^: e.g. 1 - 3*z + z^2."""
        return render_terms(
            (c, "" if power == 0 else variable if power == 1 else f"{variable}^{power}")
            for power, c in enumerate(self.coefficients)
        )

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]})"


def _divide_linear(nums: Sequence[int], b0: int, b1: int) -> list[int] | None:
    """nums / (b0 + b1*z) in int, or None when the division leaves a
    remainder; b0 + b1*z is primitive with b1 != 0, and nums has no
    trailing zeros.

    Synthetic division from the top: the z^i coefficient of the product is
    b0*q_i + b1*q_(i-1), so q_(i-1) = (nums_i - b0*q_i) / b1, and nums_0 =
    b0*q_0 is what is left to check.  A primitive b0 + b1*z that divides an
    integer polynomial leaves an integer quotient (Gauss's lemma), so a
    step that does not divide in int proves a remainder.
    """
    quotient = [0] * (len(nums) - 1)
    carry = 0
    for i in range(len(nums) - 1, 0, -1):
        carry, rest = divmod(nums[i] - b0 * carry, b1)
        if rest:
            return None
        quotient[i - 1] = carry
    if nums and nums[0] != b0 * carry:
        return None
    return quotient


def _linear_power(nums: Sequence[int]) -> tuple[int, tuple[int, int], int] | None:
    """(c, (b0, b1), e) with nums = c * (b0 + b1*z)^e, or None.

    b0 + b1*z is primitive with b0 > 0, or it is z.  For b0 != 0 the
    logarithmic derivative at 0 gives b1/b0 = nums_1 / (e * nums_0).  The
    form is then confirmed by the ratio of neighbouring coefficients,
    nums_(i+1) (i+1) b0 = nums_i (e-i) b1 for i < e, which also requires
    nums_i = 0 below z^e when the base is z.  A primitive base makes the
    power primitive (Gauss's lemma), so c = nums_e / b1^e is an integer.
    """
    e = len(nums) - 1
    if e < 1:
        return (nums[0], (0, 1), 0) if nums else None
    if nums[0]:
        ratio = Fraction(nums[1], e * nums[0])
        b0, b1 = ratio.denominator, ratio.numerator
    else:
        b0, b1 = 0, 1
    if not b1:
        return None
    for i in range(e):
        if nums[i + 1] * (i + 1) * b0 != nums[i] * (e - i) * b1:
            return None
    return nums[e] // b1**e, (b0, b1), e


def render_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Signed sum of (coefficient, name) terms, e.g. 1 - 3*z + z^2.

    An empty name is the constant term.  Zero terms are skipped, a unit
    coefficient is left out, and an empty sum is "0".
    """
    pieces: list[str] = []
    for c, name in terms:
        if c == 0:
            continue
        magnitude = abs(c)
        if not name:
            body = str(magnitude)
        else:
            body = name if magnitude == 1 else f"{magnitude}*{name}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces) if pieces else "0"


def _cancel_linear(
    a: Polynomial, b: Polynomial
) -> tuple[Sequence[int], Sequence[int], tuple[int, int], int]:
    """(top, bottom, (b0, b1), m): the numerators of a and of a denominator
    b = c * (b0 + b1*z)^e, both divided by b0 + b1*z while top still divides.

    m <= e counts the divisions, found by exact synthetic division; m = e
    when a is zero.  Any other b raises NotALinearPowerError.
    """
    form = _linear_power(b._nums)
    if form is None:
        raise NotALinearPowerError(
            f"denominator {b.render()} is not a constant times a power of one linear factor"
        )
    _, base, e = form
    top, bottom = a._nums, b._nums
    m = 0
    while m < e:
        quotient = _divide_linear(top, *base)
        if quotient is None:
            break
        top, bottom = quotient, _divide_linear(bottom, *base)
        m += 1
    return top, bottom, base, m


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of a and a denominator b = c * (b0 + b1*z)^e.

    That is (z + b0/b1)^m, with m <= e the largest power of b0 + b1*z that
    divides a (see _cancel_linear); m = e when a is zero.  Any other b
    raises NotALinearPowerError.
    """
    _, _, (b0, b1), m = _cancel_linear(a, b)
    return Polynomial([Fraction(b0, b1), 1]) ** m


def substitute_cleared(p: Polynomial, sign: int, total_degree: int) -> Polynomial:
    """(1 - z)^total_degree * p(sign*z/(1 - z)) for sign = 1 or -1: the
    binomial transform's map and the geometric substitution.

    total_degree must be at least deg(p); the extra factors of 1 - z keep
    numerator/denominator substitutions of a rational function consistent.
    On p's integer numerators, S_0 = p_0 and S_i = (1 - z)*S_(i-1) +
    sign^i*p_i*z^i (p_i = 0 past deg p) end at S_total_degree, each step one
    pass of subtractions as in a Pascal row; p's denominator divides once.
    """
    if total_degree < p.degree:
        raise ValueError("total_degree below the polynomial degree")
    if p.is_zero():
        return p
    nums = p._nums
    row = [nums[0]]
    for i in range(1, total_degree + 1):
        top = sign**i * nums[i] if i < len(nums) else 0
        row = [a - b for a, b in zip(row + [top], [0] + row)]
    return _poly(row, p._den)


class RationalGF:
    """Rational function over c * (b0 + b1*z)^e in canonical
    integer-primitive form."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: CoeffsLike, denominator: CoeffsLike = 1) -> None:
        num = Polynomial.from_value(numerator)
        den = Polynomial.from_value(denominator)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._num = _poly([])
            self._den = _poly([1])
            return
        top, bottom, _, _ = _cancel_linear(num, den)
        # (top / num._den) / (bottom / den._den), over one denominator
        scale = lcm(num._den, den._den)
        top = [c * (scale // num._den) for c in top]
        bottom = [c * (scale // den._den) for c in bottom]
        content = gcd(*top, *bottom)
        if next(c for c in bottom if c) < 0:
            content = -content
        self._num = _poly([c // content for c in top])
        self._den = _poly([c // content for c in bottom])

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalGF):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == _as_gf(other)
        return NotImplemented

    def __hash__(self) -> int:
        # over a constant denominator the function equals a Polynomial
        if self._den.degree == 0:
            return hash(self._num * (1 / self._den.coefficient(0)))
        return hash((self._num, self._den))

    def __add__(self, other: "RationalGF | CoeffsLike") -> "RationalGF":
        other = _as_gf(other)
        return RationalGF(
            self._num * other._den + other._num * self._den, self._den * other._den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self._num, self._den)

    def __sub__(self, other: "RationalGF | CoeffsLike") -> "RationalGF":
        return self + (-_as_gf(other))

    def __rsub__(self, other: "RationalGF | CoeffsLike") -> "RationalGF":
        return _as_gf(other) + (-self)

    def __mul__(self, other: "RationalGF | CoeffsLike") -> "RationalGF":
        other = _as_gf(other)
        return RationalGF(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def series(self, n: int) -> list[Scalar]:
        """First n Taylor coefficients at 0, by the binomial series.

        The canonical denominator is c * (b0 + b1*z)^e with b0 != 0 (a power
        of z has no expansion at 0), and 1/(b0 + b1*z)^e = sum_m
        C(e+m-1, m) (-b1)^m z^m / b0^(e+m) (Stanley, Enumerative
        Combinatorics I, Thm 4.1.1).  So with the integer weights W_m =
        C(e+m-1, m) (-b1)^m, each from the one before as
        W_(m-1) (e+m-1) (-b1) / m, the numerator N gives
        s_n = sum_(i <= min(n, deg N)) N_i b0^i W_(n-i) / (c b0^(e+n)).
        The sum runs in int and each term is reduced once, to an int when
        its denominator divides it and a Fraction only otherwise.
        """
        if n < 1:
            raise ValueError("series length must be positive")
        num, den = self._num._nums, self._den._nums
        if den[0] == 0:
            raise NotAPowerSeriesError(
                "denominator constant coefficient is zero; no expansion at 0"
            )
        scale, (b0, b1), e = _linear_power(den)
        if not e:
            # a constant c, reported over the base z: with b0 = 1 every
            # weight past W_0 is 0 and each term is N_n / c
            b0 = 1
        weights = [1]
        for m in range(1, n):
            weights.append(weights[-1] * (e + m - 1) * -b1 // m)
        scaled = [c * b0**i for i, c in enumerate(num)]
        out: list[Scalar] = []
        power = scale * b0**e  # c b0^(e+i)
        for i in range(n):
            top = min(i + 1, len(scaled))
            t = sum(map(operator.mul, scaled[:top], reversed(weights[i + 1 - top : i + 1])))
            quotient, rest = divmod(t, power)
            out.append(Fraction(t, power) if rest else quotient)
            power *= b0
        return out

    def render(self, variable: str = "z") -> str:
        """Canonical text form, e.g. (1 - 3*z - z^2)/(1 + 2*z)^3."""
        num = self._num.render(variable)
        if self._den == Polynomial([1]):
            return num
        if self._num.degree > 0:
            num = f"({num})"
        # a canonical denominator is c * (b0 + b1*z)^e; a power of z or
        # of degree 1 is written out
        scale, (b0, b1), e = _linear_power(self._den._nums)
        if e >= 2 and b0:
            den = f"({Polynomial([b0, b1]).render(variable)})^{e}"
            if scale != 1:
                den = f"({scale}*{den})"
        elif e:
            den = f"({self._den.render(variable)})"
        else:
            den = self._den.render(variable)
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalGF({self.render()!r})"


def _as_gf(value: "RationalGF | CoeffsLike") -> RationalGF:
    if isinstance(value, RationalGF):
        return value
    return RationalGF(value)
