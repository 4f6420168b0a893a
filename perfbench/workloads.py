"""The benchmark's workloads: seeded operation lists and their output checks.

An operation is one ``binsum`` command line.  Each workload is a fixed set of
cells (command, family, route, q or k, size).  The seed deals each group of
cells the values that move an operation's cost least (k or J, q among values
of similar cost, a step of -1/0/+1 in --n-max) from a fixed multiset, and
orders the operations.  So every seed asks for different outputs while a
pass costs about the same, which keeps run-to-run spread small enough to
gate on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import oracle

Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Check


# ----------------------------------------------------------- output parsing


def _bfile_terms(text: str) -> list:
    values = []
    for index, line in enumerate(text.splitlines()):
        fields = line.split()
        if len(fields) != 2 or int(fields[0]) != index:
            raise ValueError(f"b-file line {index} reads {line!r}")
        values.append(int(fields[1]))
    return values


def _document(text: str, family: str) -> dict:
    document = json.loads(text)
    if document["family"] != family:
        raise ValueError(f"document is for family {document['family']}, asked for {family}")
    return document


def _check_seq(family: str, param: int, q, n: int, fmt: str, text: str) -> Optional[str]:
    if fmt == "bfile":
        values = _bfile_terms(text)
    else:
        values = [Fraction(t) for t in _document(text, family)["terms"]]
    if len(values) != n:
        return f"{len(values)} terms for --n-max {n}"
    return oracle.check_terms(family, param, q, values)


def _check_gf(family: str, param: int, q, window: Optional[int], text: str) -> Optional[str]:
    gf = _document(text, family)["gf"]
    num = [Fraction(c) for c in gf["num"]]
    den = [Fraction(c) for c in gf["den"]]
    if window is None:
        # an algebraic construction is pinned by its own coefficients
        window = len(num) + len(den)
    return oracle.check_gf(family, param, q, num, den, window)


def _check_recur(family: str, param: int, q, text: str) -> Optional[str]:
    rec = _document(text, family)["recurrence"]
    coeffs = [Fraction(c) for c in rec["coeffs"]]
    if rec["order"] != len(coeffs):
        return f"order {rec['order']} with {len(coeffs)} coefficients"
    init = [Fraction(t) for t in rec["init"]]
    return oracle.check_recurrence(family, param, q, coeffs, init, rec["offset"])


# verify --suite all with default bounds; the counts follow from the bounds
# (k, q <= 5, m <= 25, j <= 20) and the fixed tables
SUITE_CASES = {"appendix": 18, "formulas": 74, "identities": 58, "oeis": 7, "tables": 211}


def check_verify(text: str) -> Optional[str]:
    report = json.loads(text)
    if report["status"] != "pass" or report["counts"]["fail"] != 0:
        return f"report status {report['status']}, counts {report['counts']}"
    if report["wall_time"] is not None:
        return "wall_time is set without --timing"
    per_suite: dict = {}
    for case in report["cases"]:
        suite = case["case_id"].split("/")[0]
        per_suite[suite] = per_suite.get(suite, 0) + 1
        if case["status"] not in ("pass", "experimental"):
            return f"case {case['case_id']} has status {case['status']}"
        if case["status"] == "pass" and case["actual"] != case["expected"]:
            return f"case {case['case_id']} passed with actual {case['actual']!r}"
    if per_suite != SUITE_CASES:
        return f"cases per suite {per_suite}, expected {SUITE_CASES}"
    ids = [case["case_id"] for case in report["cases"]]
    if ids != sorted(set(ids)):
        return "case ids are not unique and sorted"
    return None


# --------------------------------------------------------------- workloads


def _q_text(q) -> str:
    return str(Fraction(q))


def _deal(rng: random.Random, values) -> list:
    """The values in a seeded order: a cell group always gets the same
    multiset, so its cost barely depends on the seed."""
    values = list(values)
    rng.shuffle(values)
    return values


def _seq_op(family: str, param: int, q, n: int, via: str, fmt: str) -> Op:
    name = "--J" if family == "c" else "--k"
    argv = ("seq", "--family", family, name, str(param), "--q", _q_text(q),
            "--n-max", str(n), "--format", fmt)
    if via != "direct":
        argv += ("--via", via)
    return Op(argv, partial(_check_seq, family, param, q, n, fmt))


def _gf_op(command: str, family: str, param: int, q, reconstruct: bool = False) -> Op:
    name = "--J" if family == "C" else "--k"
    argv = (command, "--family", family, name, str(param), "--q", _q_text(q), "--format", "json")
    if command == "recur":
        return Op(argv, partial(_check_recur, family, param, q))
    window = None
    if reconstruct:
        argv += ("--reconstruct",)
        window = 2 * param + 5  # the CLI fits degrees (k, k+1) to 2k+5 terms
    return Op(argv, partial(_check_gf, family, param, q, window))


# --n-max of each route at q = 1..5: every cell costs roughly 50-300 ms
SEQ_BFILE_SIZES = {
    ("a", "direct"): (50, 45, 42, 40, 38),
    ("a", "single"): (150, 130, 115, 105, 95),
    ("a", "series"): (40, 34, 30, 27, 25),
    ("b", "direct"): (170, 150, 135, 125, 115),
    ("b", "series"): (40, 34, 30, 27, 25),
    ("c", "direct"): (120, 200, 280, 360, 400),
}


def seq_bfile(rng: random.Random) -> list:
    ops = []
    for (family, via), sizes in SEQ_BFILE_SIZES.items():
        params = _deal(rng, (0, 5, 10, 15, 20) if family == "c" else (0, 1, 3, 4, 5))
        for q, n, param, step in zip(range(1, 6), sizes, params, _deal(rng, (-1, 0, 0, 0, 1))):
            ops.append(_seq_op(family, param, q, n + step, via, "bfile"))
    rng.shuffle(ops)
    return ops


GF_KS = (4, 8, 12, 16)
# k of the cells at q = 1, which has the smallest coefficients: each costs
# about as much as the others, and together they hold the median operation
Q1_KS = {"A": 11, "B": 13, "C": 10}
RECONSTRUCT_KS = (5, 10, 15)


def gf_recur(rng: random.Random) -> list:
    # Cells at k = 16 or 20 cost up to twice as much at one q as at another.
    # recur gets the complement 7 - q of gf's q, and B the complement 6 - q
    # of A's, so a seed moves work between cells more than it changes a
    # pass's cost.  The reconstructions at k = 20 vary most with q (q = 1
    # costs half as much as q = 4 for B), so they keep q = 1.
    ops = []
    for family in "ABC":
        qs = _deal(rng, (2, 3, 4, 5))
        for command, cell_qs in (("gf", qs), ("recur", [7 - q for q in qs])):
            for param, q in zip(GF_KS, cell_qs):
                ops.append(_gf_op(command, family, param, q))
            ops.append(_gf_op(command, family, Q1_KS[family], 1))
    qs = _deal(rng, (2, 3, 4))
    for family, cell_qs in (("A", qs), ("B", [6 - q for q in qs])):
        for param, q in zip(RECONSTRUCT_KS, cell_qs):
            ops.append(_gf_op("gf", family, param, q, reconstruct=True))
        ops.append(_gf_op("gf", family, 20, 1, reconstruct=True))
    rng.shuffle(ops)
    return ops


RATIONAL_QS = (Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 2))


# --n-max of each route at q = 1/2, 3/2, 2/3, 5/2: each cell costs about
# the same, 2/3 having the largest denominators
RATIONAL_SIZES = {("a", "single"): (38, 38, 35, 38), ("b", "direct"): (39, 39, 37, 39)}
# k of the --reconstruct cells: half well below the seq cells' cost, half
# well above
RATIONAL_RECONSTRUCT_KS = ((9, 10), (13, 14))


def rational_q(rng: random.Random) -> list:
    # The 16 seq cells cost about the same, and 8 reconstructions cost less
    # and 8 more, so the median operation sits in the middle of a dense
    # cluster.  The second group of a route gets the complement of the first
    # one's k and n steps, and B the complement of A's k, so a seed changes
    # which cell gets which value more than what a pass costs.
    ops = []
    for (family, via), sizes in RATIONAL_SIZES.items():
        params, steps = _deal(rng, (0, 2, 3, 5)), _deal(rng, (-1, 0, 0, 1))
        for cell_params, cell_steps in ((params, steps), ([5 - k for k in params], [-s for s in steps])):
            for q, n, param, step in zip(RATIONAL_QS, sizes, cell_params, cell_steps):
                ops.append(_seq_op(family, param, q, n + step, via, "json"))
    for low, high in RATIONAL_RECONSTRUCT_KS:
        params = _deal(rng, (low, low, high, high))
        for family, cell_params in (("A", params), ("B", [low + high - k for k in params])):
            for q, param in zip(RATIONAL_QS, cell_params):
                ops.append(_gf_op("gf", family, param, q, reconstruct=True))
    rng.shuffle(ops)
    return ops


def verify_offline(rng: random.Random) -> list:
    # the release gate takes no generated input; the seed has nothing to draw
    return [Op(("verify", "--suite", "all", "--offline"), check_verify)]


WORKLOADS = {
    "verify-offline": verify_offline,
    "seq-bfile": seq_bfile,
    "gf-recur": gf_recur,
    "rational-q": rational_q,
}

# the first binsum.cli.main call of a fresh interpreter, timed as set-up
PROBES = {
    "verify-offline": ("verify", "--suite", "oeis", "--offline"),
    "seq-bfile": ("seq", "--family", "b", "--k", "2", "--q", "3", "--n-max", "16", "--format", "bfile"),
    "gf-recur": ("recur", "--family", "A", "--k", "2", "--q", "3", "--format", "json"),
    "rational-q": ("gf", "--family", "B", "--k", "1", "--q", "1/2", "--reconstruct", "--format", "json"),
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(seed))
