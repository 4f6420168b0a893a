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
        # --via direct is the literal double sum; its inner sums are b's
        # carried prefix, and each outer sum is one difference of it
        ("3", "120", "bfile", ("--via", "direct"), ()),
        # --via single runs the carry both defining single sums share,
        # exactly in int at q = 3
        ("3", "400", "bfile", ("--via", "single"), ()),
        # at q = 1/2 the double sum is seq's default: it reads b's carry and
        # --via single reads a's, each term held times 2^b gcd(b!, 2^b), so
        # this covers the rational step of both.  300 terms take about
        # 0.12 s and 1000 terms about 1 s; one double sum per index does not
        # finish inside the timeout
        ("1/2", "300", "json", (), ("--via", "single")),
        ("1/2", "1000", "json", (), ("--via", "single")),
        # --via series sums a (q+2)F(q+1) per index from (p, d) pairs, the
        # single sum carries its columns: 200 terms, past seq-bfile's 40
        ("3", "200", "bfile", ("--via", "series"), ("--via", "single")),
    ],
    ids=[
        "direct-q3", "single-q3", "double-single-q1_2", "double-single-q1_2-n1000",
        "series-single-q3",
    ],
)
def test_defining_sums_equal_the_other_routes(q, n_max, fmt, route, other):
    args = (
        "-m", "binsum.cli", "seq", "--family", "a", "--k", "5", "--q", q,
        "--n-max", n_max, "--format", fmt,
    )
    assert fresh_python(*args, *route, timeout=30) == fresh_python(*args, *other, timeout=30)


# a_single_sum_terms and b_direct_terms share one carry, which steps each
# binomial of the sum from one index to the next with the tops fixed (a) or
# rising (b): in int at q = 3, and at q = p/d with every term an integer
# over d^b gcd(b!, d^b), at 5/2, at 2/3 (p < d), and at 5/6 and 7/12, whose
# d has two primes (one squared in 12), at k = 200 and 300.  Each family
# and kind of step is checked against the terminating series, the per-index
# defining sum or the kernel past the 40 terms the property tests reach.
# b's series prefix runs 200 terms against the carry, and c's prefix 5000
# stepped tops against c_direct per index
PREFIXES = """
from fractions import Fraction
from binsum.combinatorics import alternating_binomial_sum
from binsum.sequences import (
    a_single_sum, a_single_sum_terms, b_direct, b_direct_terms, b_hypergeom, b_hypergeom_terms,
    c_direct, c_direct_terms,
)
assert b_direct_terms(5, 3, 150) == [b_hypergeom(5, 3, j) for j in range(150)]
assert b_hypergeom_terms(5, 3, 200) == b_direct_terms(5, 3, 200)
assert c_direct_terms(20, 5, 5000) == [c_direct(20, 5, i) for i in range(5000)]
assert b_direct_terms(5, Fraction(5, 2), 60) == [b_direct(5, Fraction(5, 2), j) for j in range(60)]
assert b_direct_terms(5, Fraction(2, 3), 60) == [b_direct(5, Fraction(2, 3), j) for j in range(60)]
q = Fraction(5, 6)
assert b_direct_terms(200, q, 201)[198:] == [
    alternating_binomial_sum(j, j + 200, q, j + 200) for j in range(198, 201)
]
assert a_single_sum_terms(5, 3, 150) == [a_single_sum(5, 3, m) for m in range(150)]
assert a_single_sum_terms(5, Fraction(2, 3), 60) == [a_single_sum(5, Fraction(2, 3), m) for m in range(60)]
q = Fraction(7, 12)
assert a_single_sum_terms(300, q, 301)[300] == a_single_sum(300, q, 300)
"""


def test_single_sum_prefixes_equal_the_scalar_sums():
    fresh_python("-S", "-c", PREFIXES, timeout=30)


# a fresh interpreter without a bytecode cache compiles every module it
# imports, so seq, gf and recur import only the layers they run: the release
# gate (verify, its tables, oeis) and dataclasses load when verify first runs
BUILD_PATH_IMPORTS = """
import contextlib, io, sys
from binsum import cli
GATE = ("binsum.verify", "binsum.oeis", "binsum.tables", "dataclasses")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["seq", "--family", "a", "--k", "2", "--q", "3"]) == 0
    assert cli.main(["gf", "--family", "B", "--k", "1", "--q", "1/2", "--reconstruct"]) == 0
    assert cli.main(["recur", "--family", "C", "--J", "2", "--q", "3"]) == 0
loaded = [name for name in GATE if name in sys.modules]
assert loaded == [], loaded
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "oeis", "--offline"]) == 0
assert "binsum.verify" in sys.modules and "binsum.oeis" in sys.modules
"""


def test_build_path_leaves_the_release_gate_unloaded():
    # the tests' empty cache: the offline suite reads only the bundled fixtures
    fresh_python("-S", "-c", BUILD_PATH_IMPORTS, timeout=30)


# every public name resolves to its defining module's object, the six from
# oeis and verify on first access, and an unknown name is still refused
PUBLIC_NAMES = """
import importlib, sys
import binsum
assert "binsum.verify" not in sys.modules and "binsum.oeis" not in sys.modules
for name in binsum.__all__:
    value = getattr(binsum, name)
    assert value is getattr(importlib.import_module(value.__module__), name), name
assert binsum.run_suite is sys.modules["binsum.verify"].run_suite
assert binsum.fetch_bfile is sys.modules["binsum.oeis"].fetch_bfile
namespace = {}
exec("from binsum import *", namespace)
del namespace["__builtins__"]
assert len(namespace) == len(binsum.__all__) == 52
assert all(namespace[name] is getattr(binsum, name) for name in binsum.__all__)
assert not hasattr(binsum, "no_such_name")
"""


def test_public_names_resolve_to_their_modules():
    fresh_python("-S", "-c", PUBLIC_NAMES, timeout=30)
