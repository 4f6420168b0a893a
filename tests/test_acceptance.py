"""Acceptance gate: one test per release criterion, exact arithmetic throughout.

Each criterion runs the verification suites' check functions
(``binsum.verify._check_*``) over its own grid, in places wider than the
suites' grids; only facts no suite check covers are tested directly.

Every test prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line straight to
the terminal (bypassing capture) before asserting, so the run log shows a
per-criterion verdict at a glance.  Tolerances are zero everywhere; a
criterion either holds exactly or the test fails with the first few
divergences in the assertion message.
"""

import dataclasses
import hashlib
import time
from fractions import Fraction

from binsum import verify
from binsum.cli import main as cli_main
from binsum.genfunc import A_gf, B_gf
from binsum.oeis import PINNED_MAPPINGS
from binsum.polynomials import Polynomial
from binsum.sequences import a_double_sum_terms, b_direct
from binsum.tables import A_TABLE, B_TABLE, C_TABLE


def _verdict(capsys, name, failures):
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: " + "; ".join(failures[:5])


def _failures(check, rows):
    """'tag: complaint' for every (tag, args) row on which check(*args) complains."""
    return [
        f"{tag}: {complaint}" for tag, args in rows if (complaint := check(*args)) is not None
    ]


def test_criterion_01_formula_triangle(capsys):
    started = time.monotonic()
    failures = _failures(
        verify._check_a_agreement,
        [(f"k={k} q={q}", (k, q, 25)) for k in range(6) for q in range(6)],
    )
    elapsed = time.monotonic() - started
    if elapsed > 60:
        failures.append(f"grid took {elapsed:.1f}s, budget is 60s")
    _verdict(capsys, "formula-triangle", failures)


def test_criterion_02_b_table(capsys):
    failures = _failures(verify._check_b_row, [(f"(k={r.k}, q={r.q})", (r,)) for r in B_TABLE])
    quoted = {
        (1, 2): "(1 - z)/(1 + 2*z)^2",
        (2, 2): "(1 - 3*z - z^2)/(1 + 2*z)^3",
        (3, 4): "(1 - 53*z + 28*z^2 + 24*z^3)/(1 + 4*z)^4",
        (1, Fraction(1, 2)): "(8 + z)/(2*(2 + z)^2)",
        (1, Fraction(3, 2)): "(8 - 3*z)/(2*(2 + 3*z)^2)",
    }
    for row in B_TABLE:
        tag = f"(k={row.k}, q={row.q})"
        gf = row.gf.expand()
        if isinstance(row.q, int) and B_gf(row.k, row.q) != gf:
            failures.append(f"{tag}: constructed function differs from table")
        expected_render = quoted.get((row.k, row.q))
        if expected_render is not None and gf.render() != expected_render:
            failures.append(f"{tag}: rendered {gf.render()}, not {expected_render}")
    factored = Polynomial([1, -1]) * Polynomial([1, -52, -24])
    if B_gf(3, 4).numerator != factored:
        failures.append("(k=3, q=4): numerator does not factor as (1-z)(1-52z-24z^2)")
    _verdict(capsys, "b-table", failures)


def test_criterion_03_a_table(capsys):
    failures = _failures(verify._check_a_row, [(f"(k={r.k}, q={r.q})", (r,)) for r in A_TABLE])
    if len(A_TABLE) < 34:
        failures.append(f"table has only {len(A_TABLE)} rows, expected at least 34")
    annotated = {(r.k, r.q): r.oeis_id for r in A_TABLE if r.oeis_id}
    expected = {
        (1, 2): "A027471",
        (2, 3): "A361609",
        (3, 4): "A361610",
        (5, 6): "A361608",
    }
    if annotated != expected:
        failures.append(f"annotated rows are {annotated}, expected {expected}")
    _verdict(capsys, "a-table", failures)


def test_criterion_04_c_table(capsys):
    failures = (
        _failures(verify._check_c_row, [(f"(J={r.J}, q={r.q})", (r,)) for r in C_TABLE])
        + _failures(verify._check_c2_closed, [(f"J={J}", (J,)) for J in range(9)])
        + _failures(verify._check_c2_recurrence, [(f"J={J}", (J,)) for J in range(2, 9)])
    )
    if len(C_TABLE) != 15:
        failures.append(f"table has {len(C_TABLE)} rows, expected 15")
    _verdict(capsys, "c-table", failures)


def test_criterion_05_identity_suite(capsys):
    started = time.monotonic()
    failures = (
        _failures(verify._check_zero_sum, [(f"zero-sum q={q}", (q, 20)) for q in range(1, 7)])
        + _failures(verify._check_beta, [(f"beta q={q}", (q,)) for q in range(1, 5)])
        + _failures(
            verify._check_b_closed, [(f"q=1 closed form k={k}", (k, 25)) for k in range(9)]
        )
        + _failures(
            verify._check_power_stirling, [(f"power rebuild n={n}", (n, 12)) for n in range(13)]
        )
        + _failures(
            verify._check_partial_transform,
            [(f"partial transform J={J}", (J,)) for J in range(1, 13)],
        )
        + _failures(verify._check_omega, [(f"monomial inversion n={n}", (n,)) for n in range(11)])
    )
    # no suite checks these: b(0, q; j) = (-q)^j, and at q = 1 the contiguous
    # relation (j+1) b(k,1;j+1) + (k+j+1) b(k,1;j) = 0
    geometric = verify._first_mismatch(
        "k=0 geometric q={0} j={1}: direct sum gave {got}, (-q)^j is {want}",
        ((b_direct(0, q, j), (-q) ** j, q, j) for q in range(7) for j in range(31)),
    )
    contiguous = verify._first_mismatch(
        "q=1 recurrence k={0} j={1}: (j+1)*b(j+1) + (k+j+1)*b(j) is {got}",
        (
            ((j + 1) * b_direct(k, 1, j + 1) + (k + j + 1) * b_direct(k, 1, j), 0, k, j)
            for k in range(9)
            for j in range(26)
        ),
    )
    failures += [complaint for complaint in (geometric, contiguous) if complaint is not None]
    elapsed = time.monotonic() - started
    if elapsed > 30:
        failures.append(f"suite took {elapsed:.1f}s, budget is 30s")
    _verdict(capsys, "identity-suite", failures)


def test_criterion_06_denominator_structure(capsys):
    failures = _failures(
        verify._check_denominator,
        [(f"k={k} q={q}", (k, q)) for k in range(7) for q in range(7)],
    )
    _verdict(capsys, "denominator-structure", failures)


def test_criterion_07_recurrence_fidelity(capsys):
    failures = _failures(
        verify._check_fidelity,
        [
            (f"k={k} q={q}", ("a", A_gf, a_double_sum_terms, k, q, 41))
            for k in range(6)
            for q in range(6)
        ],
    )
    _verdict(capsys, "recurrence-fidelity", failures)


def test_criterion_08_oeis_offline(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    failures = []
    pinned = {m.oeis_id: m for m in PINNED_MAPPINGS}
    for oeis_id, k, q in (
        ("A027471", 1, 2),
        ("A361608", 5, 6),
        ("A361609", 2, 3),
        ("A361610", 3, 4),
    ):
        mapping = pinned.get(oeis_id)
        if mapping is None or mapping.params != (k, q):
            failures.append(f"{oeis_id}: no pinned mapping for (k={k}, q={q})")
            continue
        result = verify.compare_pinned(mapping, offline=True, cache_dir=cache)
        if not result.matched:
            failures.append(result.describe())
        elif result.overlap < 20:
            failures.append(f"{oeis_id}: only {result.overlap} overlapping terms")
        else:
            # the pinned shift must be the only one near it that matches, so
            # that a mapping cannot pass at an offset the entry does not use
            pinned_shift = mapping.offset_shift
            shifts = [
                shift
                for shift in range(pinned_shift - 2, pinned_shift + 3)
                if verify.compare_pinned(
                    dataclasses.replace(mapping, offset_shift=shift), offline=True, cache_dir=cache
                ).matched
            ]
            if shifts != [pinned_shift]:
                failures.append(f"{oeis_id}: matches at shifts {shifts}, pinned {pinned_shift}")

    cases = {case.case_id: case for case in verify._oeis_cases(True, cache)}
    for oeis_id in ("A034839", "A019538"):
        case = cases.get(f"oeis/{oeis_id}-triangle")
        if case is None:
            failures.append(f"{oeis_id}: no triangle case")
        elif case.status != "pass":
            failures.append(f"{oeis_id}: {case.actual}")
    _verdict(capsys, "oeis-offline", failures)


def test_criterion_09_roundtrip(capsys):
    labelled = (
        [(f"b(k={r.k}, q={r.q})", r.gf) for r in B_TABLE]
        + [(f"a(k={r.k}, q={r.q})", r.gf) for r in A_TABLE]
        + [(f"c(J={r.J}, q={r.q})", r.gf) for r in C_TABLE]
    )
    complaint = verify._check_roundtrip(labelled)
    _verdict(capsys, "gf-roundtrip", [complaint] if complaint else [])


# sha256 of the full offline report; a change to its bytes
# must be deliberate
PINNED_REPORT_SHA256 = "f6076ab4a0b5e1dd32accaee969a87753b9cfbc295c2db4601318dc74e640711"


def test_criterion_10_determinism(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["verify", "--suite", "all", "--offline"]
    code_first = cli_main(list(argv))
    out_first = capsys.readouterr().out
    code_second = cli_main(list(argv))
    out_second = capsys.readouterr().out
    failures = []
    if code_first != 0 or code_second != 0:
        failures.append(f"exit codes {code_first} and {code_second}, expected 0")
    if not out_first:
        failures.append("no report emitted")
    if out_first != out_second:
        failures.append("consecutive runs differ byte-for-byte")
    digest = hashlib.sha256(out_first.encode()).hexdigest()
    if digest != PINNED_REPORT_SHA256:
        failures.append(f"report sha256 {digest}, pinned {PINNED_REPORT_SHA256}")
    _verdict(capsys, "determinism", failures)
