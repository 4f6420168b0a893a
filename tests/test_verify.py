"""Verification harness: suite execution, report shape, determinism."""

from fractions import Fraction

import pytest

from binsum.oeis import cache_path
from binsum.polynomials import Polynomial, RationalGF
from binsum.sequences import a_single_sum, b_direct
from binsum.tables import B_TABLE
from binsum.verify import CaseResult, VerificationReport, run_suite


def make_case(case_id, status):
    return CaseResult(case_id, (("k", "1"),), "ok", "ok", status, "cross-formula")


class TestReportShape:
    def test_status_reflects_failures(self):
        passing = VerificationReport("x", (make_case("a", "pass"),))
        failing = VerificationReport("x", (make_case("a", "pass"), make_case("b", "fail")))
        assert passing.status == "pass"
        assert failing.status == "fail"

    def test_to_dict_shape(self):
        report = VerificationReport("x", (make_case("a", "pass"),))
        doc = report.to_dict()
        assert set(doc) == {"suite", "status", "counts", "wall_time", "cases"}
        case = doc["cases"][0]
        assert set(case) == {
            "case_id",
            "inputs",
            "expected",
            "actual",
            "status",
            "provenance",
        }
        assert doc["wall_time"] is None


class TestRunSuite:
    def test_formulas(self):
        report = run_suite("formulas")
        assert report.status == "pass"
        # the two rational-q cases gate like every other case
        assert report.counts == {"pass": len(report.cases), "fail": 0}

    def test_identities(self):
        report = run_suite("identities")
        assert report.status == "pass"

    def test_appendix(self):
        report = run_suite("appendix")
        assert report.status == "pass"

    def test_oeis_offline(self):
        report = run_suite("oeis", offline=True)
        assert report.status == "pass"
        ids = [case.case_id for case in report.cases]
        assert "oeis/A027471" in ids
        assert "oeis/A034839-triangle" in ids

    def test_oeis_offline_reads_the_cache_first(self):
        # the tests' cache directory holds a corrupt copy of one pinned entry
        path = cache_path("A027471")
        path.parent.mkdir()
        path.write_text("garbage line\n")
        report = run_suite("oeis", offline=True)
        failed = [case for case in report.cases if case.status == "fail"]
        assert [case.case_id for case in failed] == ["oeis/A027471"]
        assert failed[0].actual == (
            f"BFileParseError: corrupt cache file {path}: line 1: non-integer field "
            "in 'garbage line'; delete it to re-fetch"
        )

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_cases_sorted(self):
        report = run_suite("appendix")
        ids = [case.case_id for case in report.cases]
        assert ids == sorted(ids)

    def test_deterministic(self):
        first = run_suite("identities")
        second = run_suite("identities")
        assert first.to_dict() == second.to_dict()
        assert first.to_json() == second.to_json()

    def test_timing_requested(self):
        report = run_suite("appendix", timing=True)
        assert isinstance(report.wall_time, float)
        doc = report.to_dict()
        assert doc["wall_time"] is not None
        assert all(case["wall_time"] >= 0 for case in doc["cases"])

    def test_case_times_are_printed_only_when_timed(self):
        report = run_suite("appendix")
        assert report.wall_time is None
        assert not any("wall_time" in case for case in report.to_dict()["cases"])
        # a case's time is not part of its value
        assert report.cases == run_suite("appendix", timing=True).cases

    def test_oeis_online_failure_reported_not_raised(self, monkeypatch):
        import urllib.error

        def boom(url, timeout):
            raise urllib.error.URLError("unreachable")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        report = run_suite("oeis", offline=False)
        assert report.status == "fail"
        assert all("TransportError" in c.actual for c in report.cases if c.status == "fail")


class TestCaseReporting:
    def test_rational_q_reports_checked_ranges(self):
        report = run_suite("formulas")
        rational = [c for c in report.cases if c.case_id.startswith("formulas/rational-q/")]
        assert [c.case_id for c in rational] == [
            "formulas/rational-q/a-agreement/q1-2",
            "formulas/rational-q/a-agreement/q3-2",
        ]
        for case in rational:
            assert dict(case.inputs)["k_range"] == "0..3"
            assert dict(case.inputs)["m_range"] == "0..10"


def cases_by_id(report):
    return {case.case_id: case for case in report.cases}


class TestFailureText:
    """A broken evaluator or reference gives the same complaint as before."""

    def test_route_mismatch(self, monkeypatch):
        import binsum.verify as verify_mod

        b_real, a_real = verify_mod.b_hypergeom_terms, verify_mod.a_from_b_terms
        monkeypatch.setattr(
            verify_mod,
            "b_hypergeom_terms",
            lambda k, q, n: [v + (j == 3) for j, v in enumerate(b_real(k, q, n))],
        )
        monkeypatch.setattr(
            verify_mod,
            "a_from_b_terms",
            lambda k, q, n: [v + (m == 2) for m, v in enumerate(a_real(k, q, n))],
        )
        report = run_suite("formulas")
        cases = cases_by_id(report)
        b_case = cases["formulas/b-agreement/k1-q2"]
        assert b_case.status == "fail"
        assert b_case.actual == "j=3: terminating series gave -43, direct sum gave -44"
        a_case = cases["formulas/a-agreement/k1-q2"]
        assert a_case.status == "fail"
        assert a_case.actual == "m=2: alternating-b gave 28, double sum gave 27"

    def test_a_agreement_reads_b_direct(self, monkeypatch):
        # the b-transform prefix sums b_direct's point values, not the carried
        # prefix the double sum reads, so one wrong b term fails every
        # a-agreement case at that q from there on
        import binsum.sequences as sequences_mod

        real = sequences_mod.b_direct
        monkeypatch.setattr(
            sequences_mod, "b_direct", lambda k, q, j: real(k, q, j) + (j == 20 and q == 3)
        )
        report = run_suite("formulas")
        cases = cases_by_id(report)
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == [f"formulas/a-agreement/k{k}-q3" for k in range(6)]
        for k in range(6):
            want = a_single_sum(k, 3, 20)
            assert cases[f"formulas/a-agreement/k{k}-q3"].actual == (
                f"m=20: alternating-b gave {want + 1}, double sum gave {want}"
            )

    def test_double_sum_reads_b_prefix(self, monkeypatch):
        # the double sum's inner sums are b's carried prefix, so one wrong
        # term there fails every a-agreement case and every a recurrence
        # fidelity case, whose evaluator is the double sum, and nothing else
        import binsum.sequences as sequences_mod

        real = sequences_mod.b_direct_terms
        monkeypatch.setattr(
            sequences_mod,
            "b_direct_terms",
            lambda k, q, n: [v + (j == 20) for j, v in enumerate(real(k, q, n))],
        )
        cases = {**cases_by_id(run_suite("formulas")), **cases_by_id(run_suite("tables"))}
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == sorted(
            f"{group}k{k}-q{q}"
            for group in ("formulas/a-agreement/", "tables/recurrence-fidelity/a-")
            for k in range(6)
            for q in range(6)
        )
        for k in range(6):
            for q in range(6):
                want = a_single_sum(k, q, 20)
                assert cases[f"formulas/a-agreement/k{k}-q{q}"].actual == (
                    f"m=20: single-sum gave {want}, double sum gave {want + 1}"
                )

    def test_b_direct_at_integer_q_is_the_kernel(self, monkeypatch):
        # b_direct's integer branch is one kernel call, and the double sum
        # does not call the kernel, so a kernel slip at b's arguments shows
        # as the alternating-b route against the double sum
        import binsum.sequences as sequences_mod

        real = sequences_mod.alternating_binomial_sum
        monkeypatch.setattr(
            sequences_mod,
            "alternating_binomial_sum",
            lambda n, offset, step, bottom: real(n, offset, step, bottom)
            + (n == 20 and offset == bottom and type(step) is int),
        )
        cases = cases_by_id(run_suite("formulas"))
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == sorted(
            f"formulas/a-agreement/k{k}-q{q}" for k in range(6) for q in range(6)
        )
        for k in range(6):
            for q in range(6):
                want = a_single_sum(k, q, 20)
                assert cases[f"formulas/a-agreement/k{k}-q{q}"].actual == (
                    f"m=20: alternating-b gave {want + 1}, double sum gave {want}"
                )

    def test_wrong_b_prefix_fails_every_b_check(self, monkeypatch):
        # b-agreement, b-closed-q1, the b table rows and b recurrence fidelity
        # read b's defining sum through its prefix, so one wrong term fails
        # every one of them, each with its own complaint, and nothing else
        import binsum.verify as verify_mod

        real = verify_mod.b_direct_terms
        monkeypatch.setattr(
            verify_mod,
            "b_direct_terms",
            lambda k, q, n: [v + (j == 3) for j, v in enumerate(real(k, q, n))],
        )
        cases = {**cases_by_id(run_suite("formulas")), **cases_by_id(run_suite("tables"))}
        failed = {case_id: case.actual for case_id, case in cases.items() if case.status == "fail"}
        groups = (
            "formulas/b-agreement/",
            "formulas/b-closed-q1/",
            "tables/b-row/",
            "tables/recurrence-fidelity/b-",
        )
        assert sorted(failed) == sorted(case_id for case_id in cases if case_id.startswith(groups))
        assert len(failed) == 30 + 6 + len(B_TABLE) + 36
        for k in range(6):
            for q in range(1, 6):
                want = b_direct(k, q, 3)
                assert failed[f"formulas/b-agreement/k{k}-q{q}"] == (
                    f"j=3: terminating series gave {want}, direct sum gave {want + 1}"
                )
            want = b_direct(k, 1, 3)
            assert failed[f"formulas/b-closed-q1/k{k}"] == (
                f"j=3: closed form gave {want}, direct sum gave {want + 1}"
            )
            for q in range(6):
                assert failed[f"tables/recurrence-fidelity/b-k{k}-q{q}"] == (
                    "series of the rational function diverges from the evaluator"
                )
        for row in B_TABLE:
            q_tag = str(row.q).replace("/", "-")
            want = row.terms[3]
            assert failed[f"tables/b-row/k{row.k}-q{q_tag}"] == (
                f"j=3: evaluator gave {want + 1}, table lists {want}"
            )

    def test_wrong_single_sum_at_rational_q_fails(self, monkeypatch):
        # a_single_sum is the point reference beside the single-sum prefix,
        # so a wrong value there must fail the report, not be recorded beside it
        import binsum.verify as verify_mod

        real = verify_mod.a_single_sum
        monkeypatch.setattr(
            verify_mod,
            "a_single_sum",
            lambda k, q, m: real(k, q, m) + (q == Fraction(1, 2) and (k, m) == (1, 4)),
        )
        report = run_suite("formulas")
        assert report.status == "fail"
        assert report.counts["fail"] == 1
        case = cases_by_id(report)["formulas/rational-q/a-agreement/q1-2"]
        assert case.status == "fail"
        assert case.actual == "k=1, m=4: single-sum gave 89/8, double sum gave 81/8"

    def test_wrong_double_sum_at_rational_q_fails(self, monkeypatch):
        # seq --family a runs the double sum at rational q, so a wrong value
        # there must fail both rational-q cases; the integer-q cases pass
        import binsum.verify as verify_mod

        real = verify_mod.a_double_sum_terms
        monkeypatch.setattr(
            verify_mod,
            "a_double_sum_terms",
            lambda k, q, n: [
                v + (isinstance(q, Fraction) and m == 3) for m, v in enumerate(real(k, q, n))
            ],
        )
        report = run_suite("formulas")
        assert report.status == "fail"
        cases = cases_by_id(report)
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == [
            "formulas/rational-q/a-agreement/q1-2",
            "formulas/rational-q/a-agreement/q3-2",
        ]
        for q, case_id in zip((Fraction(1, 2), Fraction(3, 2)), failed):
            want = a_single_sum(0, q, 3)
            assert cases[case_id].actual == (
                f"k=0, m=3: single-sum gave {want}, double sum gave {want + 1}"
            )

    def test_wrong_single_sum_prefix_at_rational_q_fails(self, monkeypatch):
        # gf --family A reads its seeds from a_single_sum_terms at rational
        # q, with or without --reconstruct, so a wrong value there must fail
        # both rational-q cases; the integer-q cases pass
        import binsum.verify as verify_mod

        real = verify_mod.a_single_sum_terms
        monkeypatch.setattr(
            verify_mod,
            "a_single_sum_terms",
            lambda k, q, n: [
                v + (isinstance(q, Fraction) and m == 3) for m, v in enumerate(real(k, q, n))
            ],
        )
        report = run_suite("formulas")
        cases = cases_by_id(report)
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == [
            "formulas/rational-q/a-agreement/q1-2",
            "formulas/rational-q/a-agreement/q3-2",
        ]
        for q, case_id in zip((Fraction(1, 2), Fraction(3, 2)), failed):
            want = a_single_sum(0, q, 3)
            assert cases[case_id].actual == (
                f"k=0, m=3: single-sum prefix gave {want + 1}, double sum gave {want}"
            )

    def test_wrong_single_sum_prefix_at_integer_q_fails(self, monkeypatch):
        # seq --via single prints a_single_sum_terms at integer q and
        # gf --family A --reconstruct fits it, so a wrong entry there must
        # fail every integer-q a-agreement case; the rational-q cases pass
        import binsum.verify as verify_mod

        real = verify_mod.a_single_sum_terms
        monkeypatch.setattr(
            verify_mod,
            "a_single_sum_terms",
            lambda k, q, n: [
                v + (isinstance(q, int) and m == 12) for m, v in enumerate(real(k, q, n))
            ],
        )
        cases = cases_by_id(run_suite("formulas"))
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == sorted(
            f"formulas/a-agreement/k{k}-q{q}" for k in range(6) for q in range(6)
        )
        for k in range(6):
            for q in range(6):
                want = a_single_sum(k, q, 12)
                assert cases[f"formulas/a-agreement/k{k}-q{q}"].actual == (
                    f"m=12: single-sum prefix gave {want + 1}, double sum gave {want}"
                )

    def test_kernel_wrong_only_at_rational_step_fails(self, monkeypatch):
        # a_single_sum is a call of the alternating-sum kernel, and every
        # integer-q case runs its int branch, so a slip in the Fraction
        # branch alone must still fail both rational-q cases
        import binsum.sequences as sequences_mod

        real = sequences_mod.alternating_binomial_sum
        monkeypatch.setattr(
            sequences_mod,
            "alternating_binomial_sum",
            lambda n, offset, step, bottom: real(n, offset, step, bottom)
            + (n == 7 and type(step) is not int),
        )
        report = run_suite("formulas")
        assert report.status == "fail"
        cases = cases_by_id(report)
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == [
            "formulas/rational-q/a-agreement/q1-2",
            "formulas/rational-q/a-agreement/q3-2",
        ]
        for case_id in failed:
            assert cases[case_id].actual.startswith("k=0, m=7: single-sum gave ")

    def test_binomial_wrong_only_at_rational_top_fails(self, monkeypatch):
        # in the formulas suite only b_direct's rational branch passes
        # binomial a non-integral top, and a_from_b_terms reads b_direct, so
        # a slip there alone must fail both rational-q cases
        import binsum.sequences as sequences_mod

        real = sequences_mod.binomial
        monkeypatch.setattr(
            sequences_mod,
            "binomial",
            lambda top, bottom: real(top, bottom)
            + (bottom == 7 and isinstance(top, Fraction) and top.denominator != 1),
        )
        report = run_suite("formulas")
        cases = cases_by_id(report)
        failed = sorted(case_id for case_id, case in cases.items() if case.status == "fail")
        assert failed == [
            "formulas/rational-q/a-agreement/q1-2",
            "formulas/rational-q/a-agreement/q3-2",
        ]
        for q, case_id in zip((Fraction(1, 2), Fraction(3, 2)), failed):
            actual = cases[case_id].actual
            assert actual.startswith("k=0, m=7: alternating-b gave ")
            assert actual.endswith(f"double sum gave {a_single_sum(0, q, 7)}")

    def test_wrong_beta_integral_at_q5_fails(self, monkeypatch):
        # the acceptance grid stops at q = 4, so only verify reaches q = 5
        import binsum.verify as verify_mod

        real = verify_mod.beta_integral

        def bumped(j, q):
            value = real(j, q)
            return value + 1 if (j, q) == (7, 5) else value

        monkeypatch.setattr(verify_mod, "beta_integral", bumped)
        report = run_suite("identities")
        failed = [case for case in report.cases if case.status == "fail"]
        assert [case.case_id for case in failed] == ["identities/beta-integral/q5"]
        direct = real(7, 5)
        assert failed[0].actual == (
            f"j=7: composition sum {direct + 1}, direct integration {direct}"
        )

    def test_wrong_recurrence_route_fails_fidelity(self, monkeypatch):
        # seq's default route is checked past its k+1 seed terms
        import binsum.verify as verify_mod

        real = verify_mod.recurrence_terms

        def bumped(family, k, q, n):
            terms = real(family, k, q, n)
            if (family, k, q) == ("b", 2, 3):
                terms[k + 5] += 1
            return terms

        monkeypatch.setattr(verify_mod, "recurrence_terms", bumped)
        report = run_suite("tables")
        failed = [case for case in report.cases if case.status == "fail"]
        assert [case.case_id for case in failed] == ["tables/recurrence-fidelity/b-k2-q3"]
        assert failed[0].actual == "unrolled annihilator (order 3) diverges from the evaluator"

    def test_wrong_seeded_function_fails(self, monkeypatch):
        # gf and recur's function reads only k+1 terms, so the construction
        # and the b table must catch a wrong one
        import binsum.verify as verify_mod

        real = verify_mod.paper_gf

        def bumped(family, k, q):
            gf = real(family, k, q)
            if (family, k, q) == ("b", 2, 3):
                gf = gf + Polynomial.monomial(1, k + 5)
            return gf

        monkeypatch.setattr(verify_mod, "paper_gf", bumped)
        report = run_suite("tables")
        failed = {case.case_id: case for case in report.cases if case.status == "fail"}
        assert sorted(failed) == ["tables/b-row/k2-q3", "tables/recurrence-fidelity/b-k2-q3"]
        seeded = "(1 - 10*z - 3*z^2 + z^7 + 9*z^8 + 27*z^9 + 27*z^10)/(1 + 3*z)^3"
        assert failed["tables/b-row/k2-q3"].actual == (
            f"built from k+1 seed terms {seeded}, table lists (1 - 10*z - 3*z^2)/(1 + 3*z)^3"
        )
        assert failed["tables/recurrence-fidelity/b-k2-q3"].actual == (
            f"built from k+1 seed terms {seeded}, constructed (1 - 10*z - 3*z^2)/(1 + 3*z)^3"
        )

    def test_wrong_seeded_a_function_fails_its_table_row(self, monkeypatch):
        # (5, 6) lies outside the recurrence-fidelity grid, so only the a
        # table compares the seeded A there
        import binsum.verify as verify_mod

        real = verify_mod.paper_gf

        def bumped(family, k, q):
            gf = real(family, k, q)
            if (family, k, q) == ("a", 5, 6):
                gf = gf + Polynomial.monomial(1, k + 5)
            return gf

        monkeypatch.setattr(verify_mod, "paper_gf", bumped)
        report = run_suite("tables")
        failed = [case for case in report.cases if case.status == "fail"]
        assert [case.case_id for case in failed] == ["tables/a-row/k5-q6"]
        table = "1 + 882*z + 10731*z^2 - 40474*z^3 + 36015*z^4"
        bump = "z^10 - 42*z^11 + 735*z^12 - 6860*z^13 + 36015*z^14 - 100842*z^15 + 117649*z^16"
        assert failed[0].actual == (
            f"built from k+1 seed terms ({table} + {bump})/(1 - 7*z)^6,"
            f" table lists ({table})/(1 - 7*z)^6"
        )

    def test_triangle_row_mismatch(self, monkeypatch):
        import binsum.verify as verify_mod

        real = verify_mod.omega_poly
        monkeypatch.setattr(
            verify_mod,
            "omega_poly",
            lambda n: real(n) + Polynomial.monomial(1, 3) if n == 3 else real(n),
        )
        report = run_suite("oeis", offline=True)
        case = cases_by_id(report)["oeis/A019538-triangle"]
        assert case.status == "fail"
        assert case.actual == "n=3: coefficients [1, 6, 7], reference row [1, 6, 6]"

    def test_triangle_reference_too_short(self, monkeypatch):
        import binsum.oeis as oeis_mod

        real = oeis_mod.fetch_bfile
        monkeypatch.setattr(
            oeis_mod, "fetch_bfile", lambda oeis_id, *a, **kw: real(oeis_id, *a, **kw)[:10]
        )
        report = run_suite("oeis", offline=True)
        cases = cases_by_id(report)
        for oeis_id in ("A034839", "A019538", "A123125"):
            case = cases[f"oeis/{oeis_id}-triangle"]
            assert case.status == "fail"
            assert case.actual == "reference file too short"

    def test_refit_mismatch(self, monkeypatch):
        import binsum.verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "reconstruct_rational", lambda series: RationalGF([1], [1, -1])
        )
        report = run_suite("tables")
        cases = cases_by_id(report)
        row = cases["tables/b-row/k1-q2"]
        assert row.status == "fail"
        assert row.actual == "series fit returned 1/(1 - z), table lists (1 - z)/(1 + 2*z)^2"
        roundtrip = cases["tables/roundtrip/b-table"]
        assert roundtrip.status == "fail"
        assert roundtrip.actual == "k0-q0: refit 1/(1 - z) != 1"

    @pytest.mark.parametrize(
        "name, point, bump, suite, case_id, complaint",
        [
            pytest.param(
                "a_double_sum_terms", (1, 2, 41), lambda v: v[:5] + [v[5] + 1] + v[6:],
                "tables", "tables/recurrence-fidelity/a-k1-q2",
                "series of the rational function diverges from the evaluator",
                id="a_double_sum_terms",
            ),
            # verify reads the prefixes seq --via series and seq --family c run
            pytest.param(
                "a_hypergeom_terms", (1, 2, 26), lambda v: v[:7] + [v[7] + 1] + v[8:],
                "formulas", "formulas/a-agreement/k1-q2",
                "m=7: terminating-series gave 17497, double sum gave 17496",
                id="a_hypergeom_terms",
            ),
            pytest.param(
                "b_hypergeom_terms", (1, 2, 21), lambda v: v[:7] + [v[7] + 1] + v[8:],
                "formulas", "formulas/b-agreement/k1-q2",
                "j=7: terminating series gave -1471, direct sum gave -1472",
                id="b_hypergeom_terms",
            ),
            pytest.param(
                "c_direct_terms", (1, 3, 9), lambda v: v[:7] + [v[7] + 1] + v[8:],
                "tables", "tables/c-row/J1-q3", "i=7: evaluator gave 23, table lists 22",
                id="c_direct_terms",
            ),
            pytest.param(
                "B_gf", (2, 3),
                lambda f: RationalGF(f.numerator, f.denominator * Polynomial([1, 3])),
                "tables", "tables/denominator/k2-q3",
                "denominator 1 + 12*z + 54*z^2 + 108*z^3 + 81*z^4 "
                "does not divide 1 + 9*z + 27*z^2 + 27*z^3",
                id="B_gf",
            ),
            pytest.param(
                "C_gf_stirling", (2, 3), lambda f: f + 1, "tables", "tables/c-row/J2-q3",
                "constructed (2 + 4*x + 4*x^2 - x^3)/(1 - x)^3, "
                "table lists (1 + 7*x + x^2)/(1 - x)^3",
                id="C_gf_stirling",
            ),
            pytest.param(
                "C2_closed_form", (5,), lambda f: f + 1, "tables", "tables/c2-closed/J5",
                "closed form (2 + 9*x + 30*x^2 - 19*x^3 + 15*x^4 - 6*x^5 + x^6)/(1 - x)^6, "
                "construction (1 + 15*x + 15*x^2 + x^3)/(1 - x)^6",
                id="C2_closed_form",
            ),
            pytest.param(
                "zero_sum_identity", (7, 3), lambda v: v + 1, "identities",
                "identities/zero-sum/q3", "j=7: sum evaluates to 1",
                id="zero_sum_identity",
            ),
            pytest.param(
                "power_via_stirling", (5, 4), lambda v: v + 1, "identities",
                "identities/power-stirling/n04", "base=5: rebuilt 626, expected 625",
                id="power_via_stirling",
            ),
            pytest.param(
                "b_k1_closed", (2, 3), lambda v: v + 1, "formulas", "formulas/b-closed-q1/k2",
                "j=3: closed form gave -9, direct sum gave -10",
                id="b_k1_closed",
            ),
            pytest.param(
                "stirling_omega_identity_check", (5,), lambda pair: (pair[0], pair[1] + 1),
                "identities", "identities/omega-inversion/n05",
                "reconstruction gave 1 + x^5",
                id="stirling_omega_identity_check",
            ),
        ],
    )
    def test_check_catches_one_wrong_point(
        self, monkeypatch, name, point, bump, suite, case_id, complaint
    ):
        # the acceptance gate runs these checks too, so each must complain
        import binsum.verify as verify_mod

        real = getattr(verify_mod, name)
        monkeypatch.setattr(
            verify_mod, name, lambda *args: bump(real(*args)) if args == point else real(*args)
        )
        case = cases_by_id(run_suite(suite))[case_id]
        assert case.status == "fail"
        assert case.actual == complaint
