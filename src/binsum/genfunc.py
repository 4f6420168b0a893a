"""Generating-function constructions for the three families.

B(k, q; z) generates b(k, q; j).  It starts from the geometric 1/(1+qz) and
climbs in k by adding a polynomial correction over (1+qz)^(k+1).  A(k, q; z)
generates a(k, q; m) and is the sign-flipped binomial transform of B at the
function level: A(z) = 1/(1-z) * B(-z/(1-z)).  That substitution is an
involution, so the same operator maps A back to B.

C(J, q; z) generates c(J, q; i) and is assembled from the geometric
polynomials omega_n (power-sum numerators) weighted by signed Stirling
numbers of the first kind.

The module also reconstructs rational functions from series prefixes by an
exact linear solve and reads off C-finite recurrences from denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import (
    Scalar,
    binomial,
    eulerian,
    factorial,
    stirling1_signed,
    stirling2,
)
from .errors import NeedsMoreTermsError, NoRationalFitError, NotAPowerSeriesError
from .polynomials import Polynomial, RationalGF, substitute_cleared
from .sequences import _require_integer_q


def B_gf(k: int, q: int) -> RationalGF:
    """Generating function of b(k, q; j) for integer k, q >= 0.

    Base case 1/(1+qz); each step k-1 -> k adds T_k(z)/(1+qz)^(k+1) where

      T_k(z) = sum_{s=0..k} z^s sum_{j=0..s} C(k+1, s-j) q^(s-j)
               * sum_{i=0..j} (-1)^i C(j,i) C(j+k-1+q*i, q*i-1).

    The innermost binomial uses the total definition, so the i=0 term
    (bottom -1) is zero.  The canonical denominator always divides
    (1+qz)^(k+1).
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    q = _require_integer_q(q, "B_gf")
    result = RationalGF(1, [1, q])
    for step in range(1, k + 1):
        correction = []
        for s in range(step + 1):
            coefficient = 0
            for j in range(s + 1):
                inner = sum(
                    (-1) ** i * binomial(j, i) * binomial(j + step - 1 + q * i, q * i - 1)
                    for i in range(j + 1)
                )
                coefficient += binomial(step + 1, s - j) * q ** (s - j) * inner
            correction.append(coefficient)
        result = result + RationalGF(correction, Polynomial([1, q]) ** (step + 1))
    return result


def binomial_transform_gf(f: RationalGF) -> RationalGF:
    """The substitution g(z) = 1/(1-z) * f(-z/(1-z)).

    This is exactly the map sending the generating function of b(j) to that
    of a(m) = sum_j (-1)^j C(m,j) b(j), and it is an involution: applying it
    twice returns the input.
    """
    num, den = f.numerator, f.denominator
    lift = max(num.degree, den.degree)
    inner_num = Polynomial([0, -1])
    inner_den = Polynomial([1, -1])
    new_num = substitute_cleared(num, inner_num, inner_den, lift)
    new_den = substitute_cleared(den, inner_num, inner_den, lift) * inner_den
    return RationalGF(new_num, new_den)


def A_gf(k: int, q: int) -> RationalGF:
    """Generating function of a(k, q; m): the binomial transform of B_gf."""
    return binomial_transform_gf(B_gf(k, q))


def omega_poly(n: int) -> Polynomial:
    """Geometric polynomial omega_n(x) = sum_k S2(n,k) k! x^k."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return Polynomial([stirling2(n, j) * factorial(j) for j in range(n + 1)])


def _omega_transformed(n: int) -> tuple[Polynomial, int]:
    """Numerator and denominator power of 1/(1-x) * omega_n(x/(1-x)).

    Returns (P, n+1) with the value equal to P(x)/(1-x)^(n+1).
    """
    numerator = substitute_cleared(
        omega_poly(n), Polynomial([0, 1]), Polynomial([1, -1]), n
    )
    return numerator, n + 1


def power_sum_gf(n: int) -> RationalGF:
    """Rational form of sum_{k>=0} k^n x^k.

    Built by the omega substitution and cross-checked coefficientwise against
    the Eulerian-number numerator; the two routes must coincide.
    """
    numerator, power = _omega_transformed(n)
    result = RationalGF(numerator, Polynomial([1, -1]) ** power)
    if n == 0:
        eulerian_numerator = Polynomial([1])
    else:
        eulerian_numerator = Polynomial([0] + [eulerian(n, j) for j in range(n)])
    if result != RationalGF(eulerian_numerator, Polynomial([1, -1]) ** (n + 1)):
        raise ArithmeticError(f"power-sum routes disagree at n={n}")
    return result


def C_gf_stirling(J: int, q: int) -> RationalGF:
    """Generating function of c(J, q; i) via geometric polynomials.

    C(J, q; z) = (1/J!) sum_{t=0..J} [1/(1-z)] omega_t(z/(1-z)) q^t
                 * (-1)^(J+t) s(J+1, t+1)

    with s the signed Stirling numbers of the first kind.  The denominator
    divides (1-z)^(J+1).
    """
    if J < 0 or q < 0:
        raise ValueError("J and q must be nonnegative")
    one_minus = Polynomial([1, -1])
    numerator = Polynomial()
    for t in range(J + 1):
        omega_num, _ = _omega_transformed(t)
        weight = q**t * (-1) ** (J + t) * stirling1_signed(J + 1, t + 1)
        numerator = numerator + weight * omega_num * one_minus ** (J - t)
    return RationalGF(numerator, factorial(J) * one_minus ** (J + 1))


def C2_closed_form(J: int) -> RationalGF:
    """Closed form at q=2: sum_l C(J+1, 2l) z^l over (1-z)^(J+1).

    Satisfies the three-term relation (1-z) C(J) = 2 C(J-1) - C(J-2) for
    J >= 2 and agrees with C_gf_stirling(J, 2).
    """
    if J < 0:
        raise ValueError(f"J must be nonnegative, got {J}")
    numerator = [binomial(J + 1, 2 * l) for l in range((J + 1) // 2 + 1)]
    return RationalGF(numerator, Polynomial([1, -1]) ** (J + 1))


def reconstruct_rational(
    series: Sequence[Scalar], num_degree: int, den_degree: int
) -> RationalGF:
    """Fit num/den with den(0)=1 to a series prefix, exactly.

    Requires at least num_degree + den_degree + 2 terms: enough to determine
    the den_degree + num_degree + 1 unknowns with one spare equation.  The
    candidate is verified against every supplied term before it is returned;
    an unsatisfiable system raises NoRationalFitError.
    """
    terms = [Fraction(t) for t in series]
    needed = num_degree + den_degree + 2
    if len(terms) < needed:
        raise NeedsMoreTermsError(
            f"need at least {needed} terms for degrees ({num_degree}, {den_degree}), got {len(terms)}"
        )
    # den * S has zero coefficients above num_degree; solve for den_1..den_d
    rows = []
    rhs = []
    for n in range(num_degree + 1, len(terms)):
        rows.append([terms[n - i] if n - i >= 0 else Fraction(0) for i in range(1, den_degree + 1)])
        rhs.append(-terms[n])
    solution = _solve_exact(rows, rhs)
    if solution is None:
        raise NoRationalFitError(
            f"no rational function of degrees ({num_degree}, {den_degree}) fits the series"
        )
    den = Polynomial([Fraction(1)] + solution)
    # numerator by convolution of the low-order part
    num = [
        sum(den.coefficient(i) * terms[n - i] for i in range(0, min(n, den_degree) + 1))
        for n in range(num_degree + 1)
    ]
    candidate = RationalGF(num, den)
    if candidate.series(len(terms)) != terms:
        raise NoRationalFitError(
            f"no rational function of degrees ({num_degree}, {den_degree}) reproduces all terms"
        )
    return candidate


def _solve_exact(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Gaussian elimination over Fraction; consistent underdetermined systems
    take zero for the free variables; inconsistent systems return None."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for row_index, col in enumerate(pivot_cols):
        solution[col] = aug[row_index][n]
    return solution


@dataclass(frozen=True)
class CFiniteRecurrence:
    """Constant-coefficient linear recurrence read off a rational GF.

    a(n) = sum_{i=1..order} coefficients[i-1] * a(n-i) holds for every
    n >= offset + order; initial_terms covers indices 0..offset+order-1.
    offset counts the leading indices where the numerator still interferes.
    """

    order: int
    coefficients: tuple[Fraction, ...]
    initial_terms: tuple[Fraction, ...]
    offset: int

    def terms(self, n: int) -> list[Fraction]:
        """First n sequence values: seed terms, then the recurrence."""
        out = list(self.initial_terms[:n])
        while len(out) < n:
            position = len(out)
            out.append(
                sum(c * out[position - i] for i, c in enumerate(self.coefficients, start=1))
            )
        return out

    def render(self, symbol: str = "a") -> str:
        pieces = []
        for i, c in enumerate(self.coefficients, start=1):
            if c == 0:
                continue
            magnitude = abs(c)
            body = f"{symbol}(n-{i})" if magnitude == 1 else f"{magnitude}*{symbol}(n-{i})"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        summed = " ".join(pieces) if pieces else "0"
        return f"{symbol}(n) = {summed}"


def recurrence_from_gf(f: RationalGF) -> CFiniteRecurrence:
    """Extract the C-finite recurrence of the series of f.

    With the denominator normalized to constant term 1 and coefficients
    d_0=1, d_1..d_r, the series satisfies a(n) = -sum d_i a(n-i) whenever
    n exceeds the numerator degree.  The offset is how many extra leading
    terms beyond the order are needed before that holds unconditionally.
    """
    d0 = f.denominator.coefficient(0)
    if d0 == 0:
        raise NotAPowerSeriesError("denominator constant coefficient is zero")
    order = f.denominator.degree
    if order == 0:
        # polynomial: finitely many nonzero terms; model as order-1 with zero tail
        offset = f.numerator.degree + 1
        seed = f.series(offset + 1)
        return CFiniteRecurrence(1, (Fraction(0),), tuple(seed), offset)
    coefficients = tuple(-f.denominator.coefficient(i) / d0 for i in range(1, order + 1))
    offset = max(0, f.numerator.degree + 1 - order)
    seed = f.series(order + offset)
    return CFiniteRecurrence(order, coefficients, tuple(seed), offset)


def stirling_binomial_transform_check(J: int, t: int) -> tuple[int, int]:
    """Both sides of sum_{l=t..J} s(J,l) C(l,t) J^l = (-1)^(J+t) J^t s(J+1,t+1).

    Signed Stirling numbers of the first kind throughout.  Returns
    (lhs, rhs); equality is the point of the identity.
    """
    if J < 1 or not 0 <= t <= J:
        raise ValueError("need J >= 1 and 0 <= t <= J")
    lhs = sum(stirling1_signed(J, l) * binomial(l, t) * J**l for l in range(t, J + 1))
    rhs = (-1) ** (J + t) * J**t * stirling1_signed(J + 1, t + 1)
    return lhs, rhs


def stirling_omega_identity_check(n: int) -> tuple[Polynomial, Polynomial]:
    """Both sides of x^n = (1/n!) sum_k s(n,k) omega_k(x).

    Returns (monomial, reconstruction); equality follows from the
    orthogonality of the two Stirling kinds.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    reconstruction = Polynomial()
    for k in range(n + 1):
        reconstruction = reconstruction + stirling1_signed(n, k) * omega_poly(k)
    reconstruction = reconstruction * Fraction(1, factorial(n))
    return Polynomial.monomial(1, n), reconstruction
