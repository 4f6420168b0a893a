"""Checks at scale: the paper's formulas at the sizes where its claim matters.

A and B at k = 80-400, C at J = 500, fits of 165 terms, and prefixes of
hundreds of terms, each past the sizes the other modules reach.  Every check
runs in a fresh interpreter under its own timeout, so the default digit cap,
real stdout and, with -S, a runtime without site-packages are what is tested,
and a route that falls back to a slower path fails on its timeout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binsum

SRC = str(Path(binsum.__file__).resolve().parent.parent)


def fresh_python(*args, timeout):
    """stdout of `python *args` in a fresh interpreter with src on its path,
    which must exit 0 with nothing on stderr inside timeout seconds."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_large_q_b_file_is_linear():
    # b(0, 100000; j) = (-100000)^j through the default recurrence route;
    # the defining sum takes minutes for this file
    out = fresh_python(
        "-m", "binsum.cli", "seq", "--family", "b", "--k", "0", "--q", "100000",
        "--n-max", "900", "--format", "bfile", timeout=60,
    )
    lines = out.splitlines()
    assert len(lines) == 900
    # (-100000)^899 = -10^4495, past the 4,300-digit cap
    assert lines[-1] == "899 -1" + "0" * 4495
    assert out.endswith("\n")


@pytest.mark.parametrize(
    "q, family, size, order, weight",
    [
        # C(500, 1; x) has denominator (1 - x)^501: built from 501 seed terms
        # times (1 - x)^501 in about half a second
        ("1", "C", ("--J", "500"), 501, "501"),
        # at q = 3 the numerators are not 1, so canonical form divides by the
        # one linear factor of the denominator, (1 - x) for C and (1 + 3z)
        # for B, while the remainder is zero; under a second each, where a
        # general Euclidean gcd took over 9 minutes for C(500, 3; x)
        ("3", "C", ("--J", "500"), 501, "501"),
        ("3", "B", ("--k", "200"), 201, "-603"),
    ],
    ids=["C500-q1", "C500-q3", "B200-q3"],
)
def test_large_recurrence(q, family, size, order, weight):
    out = fresh_python(
        "-m", "binsum.cli", "recur", "--family", family, *size, "--q", q,
        "--format", "json", timeout=60,
    )
    recurrence = json.loads(out)["recurrence"]
    # the order and the weight of a(n-1)
    assert (recurrence["order"], recurrence["coeffs"][0]) == (order, weight)


@pytest.mark.parametrize(
    "row",
    [
        ("A", "--k", "80", "--q", "3"),
        ("C", "--J", "60", "--q", "7/3"),
        ("B", "--k", "40", "--q", "5/2"),
        ("A", "--k", "40", "--q", "7/3"),
    ],
    ids=["A80-q3", "C60-q7_3", "B40-q5_2", "A40-q7_3"],
)
def test_seeded_build_equals_the_fit(row):
    # without --reconstruct the function is built from k+1 seed terms (J+1
    # for C), read as one prefix, times the paper's denominator
    # (1 - r z)^(k+1); with it the same prefix gives 2k+5 terms and
    # Berlekamp-Massey fits them in O(terms x order) steps, about 2 s for
    # A(80, 3; z)'s 165 terms, where a fit cubic in the order times out.  The
    # paper's denominators hold at every rational q, so the rational-q rows
    # match byte for byte too
    gf = ("-m", "binsum.cli", "gf", "--family", *row, "--format", "json")
    assert fresh_python(*gf, "--reconstruct", timeout=30) == fresh_python(*gf, timeout=30)


# B_gf climbs 80 steps of alternating-sum kernel calls, A_gf transforms it,
# and C_gf_stirling sums 61 geometric polynomials at a rational q, each
# against the function built from its k+1 (J+1) seed terms, read as one
# prefix.  The substitution (1 - z)^L p(+-z/(1 - z)) runs with sign -1 at
# order 81, where the transform maps A(80, 3) back to B(80, 3), and with
# sign +1 in C(150, 3).  The large-k builds read their seeds from the
# carried prefixes, so their series past the seeds is checked against the
# scalar sums, which compute each term afresh: A(400, 3) in int, and
# B(200, 1/2) and A(400, 1/2) over a shared denominator
CONSTRUCTIONS = """
from fractions import Fraction
from binsum.genfunc import A_gf, B_gf, C_gf_stirling, binomial_transform_gf, paper_gf
from binsum.sequences import a_single_sum, b_direct
assert B_gf(80, 3) == paper_gf("b", 80, 3)
assert A_gf(80, 3) == paper_gf("a", 80, 3)
assert binomial_transform_gf(A_gf(80, 3)) == B_gf(80, 3)
assert C_gf_stirling(60, Fraction(7, 3)) == paper_gf("c", 60, Fraction(7, 3))
assert C_gf_stirling(150, 3) == paper_gf("c", 150, 3)
assert paper_gf("a", 400, 3).series(410)[400:] == [a_single_sum(400, 3, m) for m in range(400, 410)]
half = Fraction(1, 2)
assert paper_gf("b", 200, half).series(205)[200:] == [b_direct(200, half, j) for j in range(200, 205)]
assert paper_gf("a", 400, half).series(405)[400:] == [a_single_sum(400, half, m) for m in range(400, 405)]
"""


def test_constructions_equal_the_seeded_builds():
    fresh_python("-S", "-c", CONSTRUCTIONS, timeout=60)


@pytest.mark.parametrize(
    "q, n_max, fmt, route, other",
    [
        # --via direct is the literal double sum; each inner sum goes through
        # the alternating-sum kernel in math.comb, once for the whole prefix
        ("3", "120", "bfile", ("--via", "direct"), ()),
        # --via single runs the carry both defining single sums share,
        # exactly in int at q = 3
        ("3", "400", "bfile", ("--via", "single"), ()),
        # at q = 1/2 the double sum is seq's default, its kernel over one
        # shared denominator, and the carry runs as integer falling products
        # over one shared denominator, so this covers the Fraction branch of
        # both.  The 300 terms take about 1.5 s; one double sum per index
        # does not finish inside the timeout
        ("1/2", "300", "json", (), ("--via", "single")),
    ],
    ids=["direct-q3", "single-q3", "double-single-q1_2"],
)
def test_defining_sums_equal_the_other_routes(q, n_max, fmt, route, other):
    args = (
        "-m", "binsum.cli", "seq", "--family", "a", "--k", "5", "--q", q,
        "--n-max", n_max, "--format", fmt,
    )
    assert fresh_python(*args, *route, timeout=30) == fresh_python(*args, *other, timeout=30)


# a_single_sum_terms and b_direct_terms share one carry, which steps each
# binomial of the sum from one index to the next with the tops fixed (a) or
# rising (b): exactly in int at q = 3, and as integer falling products over
# one shared denominator at q = 5/2 and at 2/3, a step p/d with p < d.  Each
# (family, branch) pair is checked against the terminating series or the
# per-index defining sum past the 40 terms the property tests reach
PREFIXES = """
from fractions import Fraction
from binsum.sequences import a_single_sum, a_single_sum_terms, b_direct, b_direct_terms, b_hypergeom
assert b_direct_terms(5, 3, 150) == [b_hypergeom(5, 3, j) for j in range(150)]
assert b_direct_terms(5, Fraction(5, 2), 60) == [b_direct(5, Fraction(5, 2), j) for j in range(60)]
assert b_direct_terms(5, Fraction(2, 3), 60) == [b_direct(5, Fraction(2, 3), j) for j in range(60)]
assert a_single_sum_terms(5, 3, 150) == [a_single_sum(5, 3, m) for m in range(150)]
assert a_single_sum_terms(5, Fraction(2, 3), 60) == [a_single_sum(5, Fraction(2, 3), m) for m in range(60)]
"""


def test_single_sum_prefixes_equal_the_scalar_sums():
    fresh_python("-S", "-c", PREFIXES, timeout=30)
