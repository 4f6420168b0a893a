"""Dense exact polynomials and canonical rational generating functions.

Polynomials are immutable dense coefficient tuples of Fractions, ascending
powers, with no trailing zeros (the zero polynomial is the empty tuple).

RationalGF keeps a numerator/denominator pair in one canonical shape so that
structural equality decides equality of rational functions:

  * the polynomial gcd is divided out,
  * both parts are scaled to integer coefficients with overall content 1,
  * the lowest nonzero denominator coefficient is positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .combinatorics import Scalar
from .errors import NotAPowerSeriesError

CoeffsLike = Union["Polynomial", Sequence[Scalar], int, Fraction]


class Polynomial:
    """Immutable dense polynomial over Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar] = ()) -> None:
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def from_value(cls, value: CoeffsLike) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return cls([value])
        return cls(value)

    @classmethod
    def monomial(cls, coefficient: Scalar, power: int) -> "Polynomial":
        return cls([0] * power + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.from_value(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as it
        return hash(self._coeffs) if self.degree > 0 else hash(self.coefficient(0))

    def __add__(self, other: CoeffsLike) -> "Polynomial":
        other = Polynomial.from_value(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: CoeffsLike) -> "Polynomial":
        return self + (-Polynomial.from_value(other))

    def __rsub__(self, other: CoeffsLike) -> "Polynomial":
        return Polynomial.from_value(other) + (-self)

    def __mul__(self, other: CoeffsLike) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self._coeffs)
        other = Polynomial.from_value(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = Polynomial.from_value(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self._coeffs)
        quotient = [Fraction(0)] * max(len(remainder) - len(other._coeffs) + 1, 0)
        lead = other._coeffs[-1]
        while len(remainder) >= len(other._coeffs) and any(remainder):
            while remainder and remainder[-1] == 0:
                remainder.pop()
            if len(remainder) < len(other._coeffs):
                break
            shift = len(remainder) - len(other._coeffs)
            factor = remainder[-1] / lead
            quotient[shift] = factor
            for i, c in enumerate(other._coeffs):
                remainder[i + shift] -= factor * c
            remainder.pop()
        return Polynomial(quotient), Polynomial(remainder)

    def render(self, variable: str = "z") -> str:
        """Human form with explicit * and ^: e.g. 1 - 3*z + z^2."""
        return render_terms(
            (c, "" if power == 0 else variable if power == 1 else f"{variable}^{power}")
            for power, c in enumerate(self._coeffs)
        )

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"


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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic polynomial gcd by the Euclidean algorithm."""
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coefficients[-1]
    return a * (1 / lead)


def substitute_cleared(
    p: Polynomial, inner_num: Polynomial, inner_den: Polynomial, total_degree: int
) -> Polynomial:
    """inner_den^total_degree * p(inner_num/inner_den), cleared of denominators.

    total_degree must be at least deg(p); the extra factors of inner_den keep
    numerator/denominator substitutions of a rational function consistent.

    Evaluated by homogeneous Horner from the top coefficient down: with
    d = deg(p), r <- r*inner_num + c_i*inner_den^(d-i), each power of
    inner_den built from the previous one, and the remaining
    inner_den^(total_degree-d) applied as one final product.
    """
    if total_degree < p.degree:
        raise ValueError("total_degree below the polynomial degree")
    if p.is_zero():
        return p
    *lower, top = p.coefficients
    result = Polynomial([top])
    den_power = Polynomial([1])
    for c in reversed(lower):
        den_power = den_power * inner_den
        result = result * inner_num + c * den_power
    return result * inner_den ** (total_degree - p.degree)


class RationalGF:
    """Rational function in canonical integer-primitive form."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: CoeffsLike, denominator: CoeffsLike = 1) -> None:
        num = Polynomial.from_value(numerator)
        den = Polynomial.from_value(denominator)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._num = Polynomial()
            self._den = Polynomial([1])
            return
        common = poly_gcd(num, den)
        if common.degree > 0:
            num, _ = divmod(num, common)
            den, _ = divmod(den, common)
        scale = lcm(*(c.denominator for c in num.coefficients + den.coefficients))
        num = num * scale
        den = den * scale
        content = gcd(*(int(c) for c in num.coefficients + den.coefficients))
        lowest = next(c for c in den.coefficients if c != 0)
        if lowest < 0:
            content = -content
        self._num = num * Fraction(1, content)
        self._den = den * Fraction(1, content)

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

    def __truediv__(self, other: "RationalGF | CoeffsLike") -> "RationalGF":
        other = _as_gf(other)
        if other._num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalGF(self._num * other._den, self._den * other._num)

    def series(self, n: int) -> list[Fraction]:
        """First n Taylor coefficients at 0 by exact long division."""
        if n < 1:
            raise ValueError("series length must be positive")
        if self._den.coefficient(0) == 0:
            raise NotAPowerSeriesError(
                "denominator constant coefficient is zero; no expansion at 0"
            )
        work = [self._num.coefficient(i) for i in range(n)]
        den = self._den.coefficients
        d0 = den[0]
        out: list[Fraction] = []
        for i in range(n):
            c = work[i] / d0
            out.append(c)
            for j in range(1, min(len(den), n - i)):
                work[i + j] -= c * den[j]
        return out

    def _denominator_power_form(self) -> tuple[int, Polynomial, int] | None:
        """Detect den = scale * base^e with integer base and e >= 2."""
        den = self._den
        e = den.degree
        if e < 2 or den.coefficient(0) == 0:
            return None
        # for c*(b0+b1*z)^e the logarithmic derivative at 0 gives b1/b0
        ratio = Fraction(den.coefficient(1), e * den.coefficient(0))
        base = Polynomial([ratio.denominator, ratio.numerator])
        if base.coefficient(0) < 0:
            base = -base
        power = base**e
        lead = power.coefficient(0)
        if lead == 0:
            return None
        scale = Fraction(den.coefficient(0), lead)
        if scale.denominator != 1 or den != power * scale:
            return None
        return int(scale), base, e

    def render(self, variable: str = "z") -> str:
        """Canonical text form, e.g. (1 - 3*z - z^2)/(1 + 2*z)^3."""
        num = self._num.render(variable)
        if self._den == Polynomial([1]):
            return num
        if self._num.degree > 0:
            num = f"({num})"
        power_form = self._denominator_power_form()
        if power_form is not None:
            scale, base, e = power_form
            den = f"({base.render(variable)})^{e}"
            if scale != 1:
                den = f"({scale}*{den})"
        elif self._den.degree > 0:
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
