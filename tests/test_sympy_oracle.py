"""sympy as an independent oracle for the exact kernels.

binsum itself is stdlib-only; these checks run where sympy is installed and
are skipped elsewhere.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from binsum.combinatorics import binomial  # noqa: E402
from binsum.genfunc import _solve_exact  # noqa: E402


def test_binomial_rational_tops_match_sympy():
    for d in range(1, 6):
        for p in range(-12, 13):
            top = Fraction(p, d)
            for k in range(11):
                expected = sympy.binomial(sympy.Rational(p, d), k)
                assert binomial(top, k) == Fraction(int(expected.p), int(expected.q))


def _random_system(rng):
    """A small integer system; about half are built rank-deficient, with rows
    that are integer combinations of fewer base rows."""
    m, n = rng.randint(1, 6), rng.randint(1, 5)
    if rng.random() < 0.5:
        base = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, min(m, n)))]
        rows = []
        for _ in range(m):
            weights = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(w * b[j] for w, b in zip(weights, base)) for j in range(n)])
    else:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # consistent by construction
        x = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [rng.randint(-4, 4) for _ in range(m)]
    return rows, rhs


def test_solve_exact_verdict_matches_sympy_rank():
    rng = random.Random(20231)
    verdicts = set()
    for _ in range(400):
        rows, rhs = _random_system(rng)
        matrix = sympy.Matrix(rows)
        augmented = matrix.row_join(sympy.Matrix(rhs))
        consistent = matrix.rank() == augmented.rank()
        solution = _solve_exact(rows, rhs)
        assert (solution is not None) == consistent, (rows, rhs)
        if solution is not None:
            assert [sum(a * v for a, v in zip(row, solution)) for row in rows] == rhs
        verdicts.add((consistent, matrix.rank() < len(rows[0])))
    # both verdicts occur, with and without free unknowns
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
