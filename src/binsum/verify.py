"""Verification suites: cross-formula, table-regression, identity, and OEIS checks.

Each case runs one self-contained check and records what was expected
against what actually happened.  Reports are deterministic: case ids are
fixed strings, cases are sorted lexicographically, and wall time is only
filled in when explicitly requested so that repeated runs are
byte-identical.

Every case kind is a module-level check function plus a grid of
(case id, inputs, check arguments) rows that ``_cases`` turns into results.
Grids that name evaluators are built when a suite runs, never at import,
so the check always calls the evaluator the module currently holds.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from . import oeis as oeis_mod
from .genfunc import (
    A_gf,
    B_gf,
    C2_closed_form,
    C_gf_stirling,
    binomial_transform_gf,
    omega_poly,
    paper_gf,
    power_sum_gf,
    reconstruct_rational,
    recurrence_from_gf,
    recurrence_terms,
    stirling_binomial_transform_check,
    stirling_omega_identity_check,
)
from .polynomials import Polynomial, RationalGF
from .sequences import (
    a_double_sum_terms,
    a_from_b_terms,
    a_hypergeom,
    a_single_sum,
    a_single_sum_terms,
    as_integer,
    b_direct_terms,
    b_hypergeom,
    b_k1_closed,
    beta_integral,
    c_direct,
    power_via_stirling,
    zero_sum_identity,
)
from .tables import A_TABLE, B_TABLE, C_TABLE

__all__ = [
    "CaseResult",
    "VerificationReport",
    "SUITE_NAMES",
    "compare_pinned",
    "run_suite",
]

SUITE_NAMES = ("formulas", "tables", "identities", "appendix", "oeis")

PROVENANCE_TABLE = "reference-table"
PROVENANCE_CROSS = "cross-formula"
PROVENANCE_OEIS = "oeis"
PROVENANCE_IDENTITY = "identity"

# terms of a(k, q; m) compared against a pinned OEIS entry
PINNED_TERMS = 41


# grid tops that two suites share: k and q of the formulas and tables
# grids, and j of the b checks and the zero-sum identity
K_MAX = 5
Q_MAX = 5
J_MAX = 20


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    inputs: tuple[tuple[str, str], ...]
    expected: str
    actual: str
    status: str  # "pass" | "fail"
    provenance: str

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "inputs": dict(self.inputs),
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple[CaseResult, ...]
    wall_time: Optional[float] = None

    @property
    def counts(self) -> dict[str, int]:
        totals = {"pass": 0, "fail": 0}
        for case in self.cases:
            totals[case.status] += 1
        return totals

    @property
    def status(self) -> str:
        return "pass" if self.counts["fail"] == 0 else "fail"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": self.status,
            "counts": self.counts,
            "wall_time": self.wall_time,
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _cases(
    check: Callable[..., Optional[str]],
    expected: str,
    provenance: str,
    grid: Iterable[tuple[str, dict, tuple]],
) -> list[CaseResult]:
    """One case per (case_id, inputs, args) row of the grid.

    check(*args) returns None on success, else a complaint; an exception is
    reported as a complaint too.  Inputs are reported as strings.
    """
    cases = []
    for case_id, inputs, args in grid:
        try:
            complaint = check(*args)
        except Exception as exc:
            complaint = f"{type(exc).__name__}: {exc}"
        cases.append(
            CaseResult(
                case_id,
                tuple((key, str(value)) for key, value in inputs.items()),
                expected,
                expected if complaint is None else complaint,
                "pass" if complaint is None else "fail",
                provenance,
            )
        )
    return cases


def _first_mismatch(message: str, rows: Iterable[tuple]) -> Optional[str]:
    """Complain at the first (got, want, *where) row with got != want.

    The message is formatted with the row's where-values as positional
    fields and got and want as named ones.  Rows are read lazily, so no
    row past the first mismatch is evaluated.  The a-agreement and
    rational-q checks read prefixes of a, and the b checks the prefix of
    b's defining sum; each prefix is built whole before the first
    comparison that reads it.
    """
    for got, want, *where in rows:
        if got != want:
            return message.format(*where, got=got, want=want)
    return None


def _q_tag(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}-{q.denominator}"


# ---------------------------------------------------------------- formulas


def _check_a_agreement(k: int, q: int, m_max: int) -> Optional[str]:
    double = a_double_sum_terms(k, q, m_max + 1)
    via_b = a_from_b_terms(k, q, m_max + 1)
    routes = (
        ("single-sum", lambda m: a_single_sum(k, q, m)),
        ("alternating-b", via_b.__getitem__),
        ("terminating-series", lambda m: a_hypergeom(k, q, m)),
    )
    return _first_mismatch(
        "m={0}: {1} gave {got}, double sum gave {want}",
        ((route(m), double[m], m, name) for m in range(m_max + 1) for name, route in routes),
    )


def _check_b_agreement(k: int, q: int, j_max: int) -> Optional[str]:
    direct = b_direct_terms(k, q, j_max + 1)
    return _first_mismatch(
        "j={0}: terminating series gave {got}, direct sum gave {want}",
        ((b_hypergeom(k, q, j), direct[j], j) for j in range(j_max + 1)),
    )


def _check_b_closed(k: int, j_max: int) -> Optional[str]:
    direct = b_direct_terms(k, 1, j_max + 1)
    return _first_mismatch(
        "j={0}: closed form gave {got}, direct sum gave {want}",
        ((b_k1_closed(k, j), direct[j], j) for j in range(j_max + 1)),
    )


def _check_rational_q(q: Fraction, k_top: int, m_top: int) -> Optional[str]:
    terms = m_top + 1
    prefixes = (a_from_b_terms, a_double_sum_terms, a_single_sum_terms)
    return _first_mismatch(
        "k={0}, m={1}: {2} gave {got}, alternating b gave {want}",
        (
            (got, via_b[m], k, m, route)
            for k in range(k_top + 1)
            for via_b, double, single in [[prefix(k, q, terms) for prefix in prefixes]]
            for m in range(terms)
            for route, got in (
                ("single sum", a_single_sum(k, q, m)),
                ("single-sum prefix", single[m]),
                ("double sum", double[m]),
            )
        ),
    )


def _formulas_cases() -> list[CaseResult]:
    ks = range(K_MAX + 1)
    m_max = 25
    m_range = f"0..{m_max}"
    j_range = f"0..{J_MAX}"
    # gates like the rest: a_single_sum_terms is what gf --family A reads at
    # rational q, with or without --reconstruct, and a_double_sum_terms is
    # seq --family a's default route there
    k_top, m_top = 3, 10
    return (
        _cases(
            _check_a_agreement,
            "all four expressions for a(k,q;m) agree",
            PROVENANCE_CROSS,
            [
                (f"formulas/a-agreement/k{k}-q{q}", dict(k=k, q=q, m_range=m_range),
                 (k, q, m_max))
                for k in ks
                for q in range(Q_MAX + 1)
            ],
        )
        + _cases(
            _check_b_agreement,
            "both expressions for b(k,q;j) agree",
            PROVENANCE_CROSS,
            [
                (f"formulas/b-agreement/k{k}-q{q}", dict(k=k, q=q, j_range=j_range),
                 (k, q, J_MAX))
                for k in ks
                for q in range(1, Q_MAX + 1)
            ],
        )
        + _cases(
            _check_b_closed,
            "b(k,1;j) equals the signed-binomial closed form",
            PROVENANCE_CROSS,
            [
                (f"formulas/b-closed-q1/k{k}", dict(k=k, q=1, j_range=j_range), (k, J_MAX))
                for k in ks
            ],
        )
        + _cases(
            _check_rational_q,
            # the double sum is compared too; this text is pinned with the
            # report's bytes
            "single-sum and alternating-b expressions agree for rational q",
            PROVENANCE_CROSS,
            [
                (
                    f"formulas/rational-q/a-agreement/q{_q_tag(q)}",
                    dict(q=q, k_range=f"0..{k_top}", m_range=f"0..{m_top}"),
                    (q, k_top, m_top),
                )
                for q in (Fraction(1, 2), Fraction(3, 2))
            ],
        )
    )


# ------------------------------------------------------------------ tables


def _fit_length(gf: RationalGF) -> int:
    """Series length that refits gf: its order L needs 2L + 1 terms, plus one spare."""
    order = max(gf.denominator.degree, gf.numerator.degree + 1)
    return 2 * order + 2


def _check_b_row(row) -> Optional[str]:
    gf = row.gf.expand()
    length = max(len(row.terms), _fit_length(gf))
    series = b_direct_terms(row.k, row.q, length)
    complaint = _first_mismatch(
        "j={0}: evaluator gave {got}, table lists {want}",
        ((series[j], want, j) for j, want in enumerate(row.terms)),
    )
    if complaint is not None:
        return complaint
    if gf.series(length) != series:
        return "expansion of the tabulated function diverges from the terms"
    seeded = paper_gf("b", row.k, row.q)
    if seeded != gf:
        return f"built from k+1 seed terms {seeded.render()}, table lists {gf.render()}"
    refit = reconstruct_rational(series)
    if refit != gf:
        return f"series fit returned {refit.render()}, table lists {gf.render()}"
    return None


def _check_a_row(row) -> Optional[str]:
    want = row.gf.expand()
    got = A_gf(row.k, row.q)
    if got != want:
        return f"constructed {got.render()}, table lists {want.render()}"
    seeded = paper_gf("a", row.k, row.q)
    if seeded != want:
        return f"built from k+1 seed terms {seeded.render()}, table lists {want.render()}"
    return None


def _check_c_row(row) -> Optional[str]:
    complaint = _first_mismatch(
        "i={0}: evaluator gave {got}, table lists {want}",
        ((c_direct(row.J, row.q, i), want, i) for i, want in enumerate(row.terms)),
    )
    if complaint is not None:
        return complaint
    want_gf = row.gf.expand()
    got_gf = C_gf_stirling(row.J, row.q)
    if got_gf != want_gf:
        return f"constructed {got_gf.render('x')}, table lists {want_gf.render('x')}"
    seeded = paper_gf("c", row.J, row.q)
    if seeded != want_gf:
        return f"built from J+1 seed terms {seeded.render('x')}, table lists {want_gf.render('x')}"
    if got_gf.series(len(row.terms)) != list(row.terms):
        return "expansion of the constructed function diverges from the terms"
    return None


def _check_c2_closed(J: int) -> Optional[str]:
    want = C_gf_stirling(J, 2)
    got = C2_closed_form(J)
    if got != want:
        return f"closed form {got.render('x')}, construction {want.render('x')}"
    return None


def _check_c2_recurrence(J: int) -> Optional[str]:
    lhs = C2_closed_form(J) * Polynomial([1, -1])
    rhs = C2_closed_form(J - 1) * 2 - C2_closed_form(J - 2)
    if lhs != rhs:
        return f"(1-x)*C_{J} differs from 2*C_{J-1} - C_{J-2}"
    return None


def _check_denominator(k: int, q: int) -> Optional[str]:
    den = B_gf(k, q).denominator
    full = Polynomial([1, q]) ** (k + 1)
    if den.degree > k + 1 or den != den.coefficient(0) * Polynomial([1, q]) ** den.degree:
        return f"denominator {den.render()} does not divide {full.render()}"
    return None


def _check_fidelity(
    family: str, build, terms, k: int, q: int, horizon: int
) -> Optional[str]:
    """terms(k, q, n) is the family's defining prefix of length n."""
    gf = build(k, q)
    rec = recurrence_from_gf(gf)
    direct = terms(k, q, horizon)
    if gf.series(horizon) != direct:
        return "series of the rational function diverges from the evaluator"
    # gf and recur's route reads only k+1 terms, so matching the construction,
    # whose series was just checked to the horizon, is what proves it
    seeded = paper_gf(family, k, q)
    if seeded != gf:
        return f"built from k+1 seed terms {seeded.render()}, constructed {gf.render()}"
    if rec.terms(horizon) != direct:
        return f"recurrence (order {rec.order}) diverges from the evaluator"
    # seq's default route, which unrolls the paper's annihilator from k+1 seeds
    if recurrence_terms(family, k, q, horizon) != direct:
        return f"unrolled annihilator (order {k + 1}) diverges from the evaluator"
    return None


def _check_roundtrip(rows) -> Optional[str]:
    for tag, gf_spec in rows:
        gf = gf_spec.expand()
        refit = reconstruct_rational(gf.series(_fit_length(gf)))
        if refit != gf:
            return f"{tag}: refit {refit.render()} != {gf.render()}"
    return None


def _tables_cases() -> list[CaseResult]:
    horizon = 41
    families = (("a", A_gf, a_double_sum_terms), ("b", B_gf, b_direct_terms))
    tables = (
        ("b-table", [(f"k{r.k}-q{_q_tag(r.q)}", r.gf) for r in B_TABLE]),
        ("a-table", [(f"k{r.k}-q{r.q}", r.gf) for r in A_TABLE]),
        ("c-table", [(f"J{r.J}-q{r.q}", r.gf) for r in C_TABLE]),
    )
    return (
        _cases(
            _check_b_row,
            "terms, tabulated function, and series fit all agree",
            PROVENANCE_TABLE,
            [
                (f"tables/b-row/k{r.k}-q{_q_tag(r.q)}",
                 dict(k=r.k, q=r.q, terms=len(r.terms)), (r,))
                for r in B_TABLE
            ],
        )
        + _cases(
            _check_a_row,
            "constructed function matches the tabulated one",
            PROVENANCE_TABLE,
            [(f"tables/a-row/k{r.k}-q{r.q}", dict(k=r.k, q=r.q), (r,)) for r in A_TABLE],
        )
        + _cases(
            _check_c_row,
            "terms and constructed function match the table",
            PROVENANCE_TABLE,
            [
                (f"tables/c-row/J{r.J}-q{r.q}", dict(J=r.J, q=r.q, terms=len(r.terms)), (r,))
                for r in C_TABLE
            ],
        )
        + _cases(
            _check_c2_closed,
            "even-binomial closed form matches the construction",
            PROVENANCE_CROSS,
            [(f"tables/c2-closed/J{J}", dict(J=J, q=2), (J,)) for J in range(2, 9)],
        )
        + _cases(
            _check_c2_recurrence,
            "three-term relation between consecutive closed forms holds",
            PROVENANCE_CROSS,
            [(f"tables/c2-recurrence/J{J}", dict(J=J, q=2), (J,)) for J in range(4, 9)],
        )
        + _cases(
            _check_denominator,
            "denominator divides (1 + q*z)^(k+1)",
            PROVENANCE_CROSS,
            [
                (f"tables/denominator/k{k}-q{q}", dict(k=k, q=q), (k, q))
                for k in range(7)
                for q in range(7)
            ],
        )
        + _cases(
            _check_fidelity,
            "recurrence reproduces the directly evaluated terms",
            PROVENANCE_CROSS,
            [
                (
                    f"tables/recurrence-fidelity/{tag}-k{k}-q{q}",
                    dict(family=tag, k=k, q=q, index_range=f"0..{horizon - 1}"),
                    (tag, build, terms, k, q, horizon),
                )
                for tag, build, terms in families
                for k in range(K_MAX + 1)
                for q in range(Q_MAX + 1)
            ],
        )
        + _cases(
            _check_roundtrip,
            "every tabulated function is recovered from its own series",
            PROVENANCE_CROSS,
            [
                (f"tables/roundtrip/{name}", dict(rows=len(rows)), (rows,))
                for name, rows in tables
            ],
        )
    )


# -------------------------------------------------------------- identities


def _check_zero_sum(q: int, j_top: int) -> Optional[str]:
    return _first_mismatch(
        "j={0}: sum evaluates to {got}",
        ((zero_sum_identity(j, q), 0, j) for j in range(j_top + 1)),
    )


def _check_beta(q: int) -> Optional[str]:
    for j in range(9):
        value = beta_integral(j, q)
        # oracle: expand the integrand and integrate monomials
        poly = Polynomial([1] * q) ** (j + 1)
        direct = sum(
            (poly.coefficient(i) / (i + j + 1) for i in range(poly.degree + 1)),
            Fraction(0),
        )
        if value != direct:
            return f"j={j}: composition sum {value}, direct integration {direct}"
        if value <= 0:
            return f"j={j}: value {value} not positive"
        bound = math.lcm(*range(1, q * (j + 1) + 1))
        if bound % value.denominator != 0:
            return f"j={j}: denominator {value.denominator} exceeds lcm bound"
    return None


def _check_power_stirling(n: int, base_top: int) -> Optional[str]:
    return _first_mismatch(
        "base={0}: rebuilt {got}, expected {want}",
        ((power_via_stirling(base, n), base**n, base) for base in range(base_top + 1)),
    )


def _check_omega(n: int) -> Optional[str]:
    lhs, rhs = stirling_omega_identity_check(n)
    if lhs != rhs:
        return f"reconstruction gave {rhs.render('x')}"
    return None


def _check_involution(k: int, q: int) -> Optional[str]:
    gf = B_gf(k, q)
    twice = binomial_transform_gf(binomial_transform_gf(gf))
    if twice != gf:
        return f"double transform gave {twice.render()}"
    return None


def _identities_cases() -> list[CaseResult]:
    return (
        _cases(
            _check_zero_sum,
            "alternating binomial sum vanishes",
            PROVENANCE_IDENTITY,
            [
                (f"identities/zero-sum/q{q}", dict(q=q, j_range=f"0..{J_MAX}"), (q, J_MAX))
                for q in range(1, 7)
            ],
        )
        + _cases(
            _check_beta,
            "composition expansion matches direct integration, positive, bounded denominator",
            PROVENANCE_IDENTITY,
            [
                (f"identities/beta-integral/q{q}", dict(q=q, j_range="0..8"), (q,))
                for q in range(1, 6)
            ],
        )
        + _cases(
            _check_power_stirling,
            "powers rebuilt from set-partition counts",
            PROVENANCE_IDENTITY,
            [
                (f"identities/power-stirling/n{n:02d}", dict(n=n, base_range="0..12"), (n, 12))
                for n in range(11)
            ],
        )
        + _cases(
            _check_omega,
            "monomial recovered from the ordered-partition polynomials",
            PROVENANCE_IDENTITY,
            [(f"identities/omega-inversion/n{n:02d}", dict(n=n), (n,)) for n in range(11)],
        )
        + _cases(
            _check_involution,
            "binomial transform applied twice is the identity",
            PROVENANCE_IDENTITY,
            [
                (f"identities/involution/k{k}-q{q}", dict(k=k, q=q), (k, q))
                for k in range(5)
                for q in range(5)
            ],
        )
    )


# ---------------------------------------------------------------- appendix


def _check_partial_transform(J: int) -> Optional[str]:
    return _first_mismatch(
        "t={0}: lhs {got}, rhs {want}",
        ((*stirling_binomial_transform_check(J, t), t) for t in range(J + 1)),
    )


def _check_power_sum(n: int) -> Optional[str]:
    return _first_mismatch(
        "j={0}: coefficient {got}, expected {want}",
        ((term, j**n, j) for j, term in enumerate(power_sum_gf(n).series(21))),
    )


def _appendix_cases() -> list[CaseResult]:
    return _cases(
        _check_partial_transform,
        "partial binomial transform of first-kind rows collapses",
        PROVENANCE_IDENTITY,
        [
            (f"appendix/partial-transform/J{J:02d}", dict(J=J, t_range=f"0..{J}"), (J,))
            for J in range(1, 11)
        ],
    ) + _cases(
        _check_power_sum,
        "expansion enumerates n-th powers",
        PROVENANCE_IDENTITY,
        [(f"appendix/power-sum/n{n}", dict(n=n, prefix=21), (n,)) for n in range(1, 9)],
    )


# -------------------------------------------------------------------- oeis


def compare_pinned(
    mapping: oeis_mod.OeisMapping,
    *,
    offline: bool = False,
    cache_dir: Optional[str] = None,
) -> oeis_mod.ComparisonResult:
    """Compare a(k, q; m) for m < PINNED_TERMS against the mapping's OEIS entry."""
    k, q = mapping.params
    computed = [as_integer(a_single_sum(k, q, m)) for m in range(PINNED_TERMS)]
    pairs = oeis_mod.fetch_bfile(mapping.oeis_id, offline=offline, cache_dir=cache_dir)
    return oeis_mod.compare_terms(computed, dict(pairs), mapping.oeis_id, pinned_shift=mapping.offset_shift)


def _check_sequence(mapping, offline: bool, cache_dir: Optional[str]) -> Optional[str]:
    result = compare_pinned(mapping, offline=offline, cache_dir=cache_dir)
    return None if result.matched else result.describe()


class _Triangle(NamedTuple):
    """An OEIS triangle read row by row from its b-file."""

    oeis_id: str
    first_index: int  # b-file index of the first row's first entry
    expected: str
    label: str  # name of the row parameter
    noun: str  # what our row is called in a complaint
    params: range
    columns: Callable[[int], range]  # coefficient indices of a row
    poly: Callable[[int], Polynomial]  # the polynomial a row lists


def _check_triangle(
    triangle: _Triangle, offline: bool, cache_dir: Optional[str]
) -> Optional[str]:
    reference = dict(
        oeis_mod.fetch_bfile(triangle.oeis_id, offline=offline, cache_dir=cache_dir)
    )
    rows = []
    index = triangle.first_index
    for p in triangle.params:
        indices = range(index, index + len(triangle.columns(p)))
        if any(i not in reference for i in indices):
            return "reference file too short"
        rows.append([reference[i] for i in indices])
        index = indices.stop
    for p, row in zip(triangle.params, rows):
        poly = triangle.poly(p)
        ours = [int(poly.coefficient(i)) for i in triangle.columns(p)]
        if ours != row:
            return f"{triangle.label}={p}: {triangle.noun} {ours}, reference row {row}"
    return None


def _oeis_cases(offline: bool, cache_dir: Optional[str]) -> list[CaseResult]:
    triangles = (
        _Triangle(
            "A034839", 2, "closed-form numerators match the even-binomial triangle",
            "J", "numerator", range(16),
            lambda J: range((J + 1) // 2 + 1), lambda J: C2_closed_form(J).numerator,
        ),
        _Triangle(
            "A019538", 1,
            "ordered-partition polynomial coefficients match the surjection triangle",
            "n", "coefficients", range(1, 13),
            lambda n: range(1, n + 1), omega_poly,
        ),
        _Triangle(
            "A123125", 1, "power-sum numerators match the descent triangle",
            "n", "numerator", range(1, 11),
            lambda n: range(n + 1), lambda n: power_sum_gf(n).numerator,
        ),
    )
    cases = _cases(
        _check_sequence,
        "computed terms match the reference sequence",
        PROVENANCE_OEIS,
        [
            (f"oeis/{m.oeis_id}", dict(k=m.params[0], q=m.params[1], terms=PINNED_TERMS),
             (m, offline, cache_dir))
            for m in oeis_mod.PINNED_MAPPINGS
        ],
    )
    for t in triangles:
        rows = f"{t.label}={t.params[0]}..{t.params[-1]}"
        cases += _cases(
            _check_triangle,
            t.expected,
            PROVENANCE_OEIS,
            [(f"oeis/{t.oeis_id}-triangle", dict(rows=rows), (t, offline, cache_dir))],
        )
    return cases


# ----------------------------------------------------------------- driver


def run_suite(
    name: str,
    *,
    offline: bool = False,
    cache_dir: Optional[str] = None,
    timing: bool = False,
) -> VerificationReport:
    """Run one named suite (or "all") and return its report."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    suites = {
        "formulas": _formulas_cases,
        "tables": _tables_cases,
        "identities": _identities_cases,
        "appendix": _appendix_cases,
        "oeis": lambda: _oeis_cases(offline, cache_dir),
    }

    started = time.monotonic() if timing else None
    cases: list[CaseResult] = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        cases.extend(suites[suite]())
    cases.sort(key=lambda case: case.case_id)
    elapsed = time.monotonic() - started if started is not None else None
    return VerificationReport(name, tuple(cases), elapsed)
