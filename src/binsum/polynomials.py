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
The public accessors still hand out Fractions, so callers that divide a
coefficient get an exact quotient.

RationalGF keeps a numerator/denominator pair in one canonical shape so that
structural equality decides equality of rational functions:

  * the polynomial gcd is divided out,
  * both parts are scaled to integer coefficients with overall content 1,
  * the lowest nonzero denominator coefficient is positive.

The gcd is the primitive Euclidean algorithm on integer numerators: each
pseudo-remainder has its content divided out before the next step (Collins
1967; Brown 1971), so no Fraction is formed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .combinatorics import Scalar
from .errors import NotAPowerSeriesError

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
        values = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coefficients]
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
        return cls(value)

    @classmethod
    def monomial(cls, coefficient: Scalar, power: int) -> "Polynomial":
        return cls([0] * power + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

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

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = Polynomial.from_value(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # with self = A/da and other = B/db, s*A = Q*B + R gives
        # self = (Q*db / (s*da)) * other + R / (s*da)
        quotient, remainder, scale = _pseudo_divide(self._nums, other._nums)
        den = scale * self._den
        return _poly([c * other._den for c in quotient], den), _poly(remainder, den)

    def render(self, variable: str = "z") -> str:
        """Human form with explicit * and ^: e.g. 1 - 3*z + z^2."""
        return render_terms(
            (c, "" if power == 0 else variable if power == 1 else f"{variable}^{power}")
            for power, c in enumerate(self.coefficients)
        )

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]})"


def _pseudo_divide(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Division with remainder of integer polynomials, scaled as it needs.

    Returns (q, r, s) with s*a = q*b + r, deg r < deg b and s > 0; b has no
    trailing zeros.  Each step cancels the top of the remainder with an
    integer multiple of b, scaling the remainder and the quotient so far by
    |lead(b)| / gcd(lead(b), top) only when lead(b) does not divide the top.
    So s divides |lead(b)|^(deg a - deg b + 1), and s = 1 when b is
    primitive and divides a: then the quotient has integer coefficients
    (Gauss's lemma), and every top is a multiple of lead(b).
    """
    rem = list(a)
    n = len(b)
    lead = b[-1]
    low = b[:-1]
    quotient = [0] * max(len(rem) - n + 1, 0)
    scale = 1
    for shift in range(len(rem) - n, -1, -1):
        top = rem.pop()
        if not top:
            continue
        if top % lead:
            g = abs(lead) // gcd(lead, top)
            rem = [g * c for c in rem]
            quotient = [g * c for c in quotient]
            scale *= g
            top *= g
        factor = top // lead
        quotient[shift] = factor
        for i, c in enumerate(low, shift):
            rem[i] -= factor * c
    return quotient, rem, scale


def _primitive(nums: Sequence[int]) -> list[int]:
    """nums without trailing zeros, divided by its content."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    content = gcd(*nums)
    return [c // content for c in nums] if content > 1 else nums


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
    """Monic polynomial gcd by the primitive Euclidean algorithm.

    Works on the integer numerators: each pseudo-remainder is made primitive
    before the next step, so the coefficients stay the size of the inputs'.
    The last nonzero one is the gcd up to a scalar.
    """
    x, y = _primitive(a._nums), _primitive(b._nums)
    while y:
        _, remainder, _ = _pseudo_divide(x, y)
        x, y = y, _primitive(remainder)
    if not x:
        return _poly([])
    return _poly(x, x[-1])


def substitute_cleared(
    p: Polynomial, inner_num: Polynomial, inner_den: Polynomial, total_degree: int
) -> Polynomial:
    """inner_den^total_degree * p(inner_num/inner_den), cleared of denominators.

    total_degree must be at least deg(p); the extra factors of inner_den keep
    numerator/denominator substitutions of a rational function consistent.

    Evaluated by homogeneous Horner from the top coefficient down: with
    d = deg(p), r <- r*inner_num + c_i*inner_den^(d-i), each power of
    inner_den built from the previous one, and the remaining
    inner_den^(total_degree-d) applied as one final product.  The c_i are
    p's integer numerators; p's denominator divides the result once.
    """
    if total_degree < p.degree:
        raise ValueError("total_degree below the polynomial degree")
    if p.is_zero():
        return p
    *lower, top = p._nums
    result = _poly([top])
    den_power = _poly([1])
    for c in reversed(lower):
        den_power = den_power * inner_den
        result = result * inner_num + c * den_power
    result = result * inner_den ** (total_degree - p.degree)
    return _poly(list(result._nums), result._den * p._den)


class RationalGF:
    """Rational function in canonical integer-primitive form."""

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
        top, bottom = num._nums, den._nums
        common = poly_gcd(num, den)
        if common.degree > 0:
            # a monic canonical gcd has primitive numerators, so both
            # quotients are exact in int (Gauss's lemma)
            top = _pseudo_divide(top, common._nums)[0]
            bottom = _pseudo_divide(bottom, common._nums)[0]
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

    def __truediv__(self, other: "RationalGF | CoeffsLike") -> "RationalGF":
        other = _as_gf(other)
        if other._num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalGF(self._num * other._den, self._den * other._num)

    def series(self, n: int) -> list[Fraction]:
        """First n Taylor coefficients at 0 by fraction-free long division.

        The canonical numerator N and denominator D have integer
        coefficients, so with d0 = D_0 the scaled terms t_i = s_i * d0^(i+1)
        are integers: t_i = N_i d0^i - sum_{j>=1} D_j d0^(j-1) t_{i-j}.  The
        loop runs in int and each term is reduced once, as t_i / d0^(i+1).
        """
        if n < 1:
            raise ValueError("series length must be positive")
        num, den = self._num._nums, self._den._nums
        d0 = den[0]
        if d0 == 0:
            raise NotAPowerSeriesError(
                "denominator constant coefficient is zero; no expansion at 0"
            )
        weights = [c * d0 ** (j - 1) for j, c in enumerate(den[1:], 1)]
        scaled: list[int] = []
        out: list[Fraction] = []
        power = 1  # d0^i
        for i in range(n):
            t = num[i] * power if i < len(num) else 0
            t -= sum(w * s for w, s in zip(weights, reversed(scaled)))
            scaled.append(t)
            power *= d0
            out.append(Fraction(t, power))
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
        scale = Fraction(den.coefficient(0), ratio.denominator**e)
        if scale.denominator != 1 or den != base**e * scale:
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
