"""Verification harness: suite execution, report shape, determinism."""

import pytest

from binsum.verify import Bounds, CaseResult, VerificationReport, run_suite


def make_case(case_id, status):
    return CaseResult(case_id, (("k", "1"),), "ok", "ok", status, "cross-formula")


class TestReportShape:
    def test_status_reflects_failures(self):
        passing = VerificationReport("x", (make_case("a", "pass"),))
        failing = VerificationReport("x", (make_case("a", "pass"), make_case("b", "fail")))
        assert passing.status == "pass"
        assert failing.status == "fail"

    def test_experimental_never_gates(self):
        report = VerificationReport(
            "x", (make_case("a", "pass"), make_case("b", "experimental"))
        )
        assert report.status == "pass"
        assert report.counts == {"pass": 1, "fail": 0, "experimental": 1}

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
    def test_formulas_small_grid(self):
        report = run_suite("formulas", Bounds(k_max=3, q_max=3, m_max=15, j_max=10))
        assert report.status == "pass"
        assert report.counts["fail"] == 0
        # rational-q cases are reported but do not gate
        assert report.counts["experimental"] == 2

    def test_identities(self):
        report = run_suite("identities", Bounds(j_max=12))
        assert report.status == "pass"

    def test_appendix(self):
        report = run_suite("appendix")
        assert report.status == "pass"

    def test_oeis_offline(self, tmp_path):
        report = run_suite("oeis", offline=True, cache_dir=str(tmp_path))
        assert report.status == "pass"
        ids = [case.case_id for case in report.cases]
        assert "oeis/A027471" in ids
        assert "oeis/A034839-triangle" in ids

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            run_suite("formulas", Bounds(k_max=-1))

    def test_cases_sorted(self):
        report = run_suite("appendix")
        ids = [case.case_id for case in report.cases]
        assert ids == sorted(ids)

    def test_deterministic(self):
        first = run_suite("identities", Bounds(j_max=6))
        second = run_suite("identities", Bounds(j_max=6))
        assert first.to_dict() == second.to_dict()
        assert first.to_json() == second.to_json()

    def test_timing_requested(self):
        report = run_suite("appendix", timing=True)
        assert isinstance(report.wall_time, float)
        assert report.to_dict()["wall_time"] is not None

    def test_oeis_online_failure_reported_not_raised(self, tmp_path, monkeypatch):
        import urllib.error

        def boom(url, timeout):
            raise urllib.error.URLError("unreachable")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        report = run_suite("oeis", offline=False, cache_dir=str(tmp_path))
        assert report.status == "fail"
        assert all("TransportError" in c.actual for c in report.cases if c.status == "fail")


class TestCaseReporting:
    def test_rational_q_reports_checked_ranges(self):
        report = run_suite("formulas", Bounds(k_max=2, q_max=0, m_max=6, j_max=0))
        rational = [c for c in report.cases if c.case_id.startswith("formulas/rational-q/")]
        assert [c.case_id for c in rational] == [
            "formulas/rational-q/a-agreement/q1-2",
            "formulas/rational-q/a-agreement/q3-2",
        ]
        for case in rational:
            assert dict(case.inputs)["k_range"] == "0..2"
            assert dict(case.inputs)["m_range"] == "0..6"


def cases_by_id(report):
    return {case.case_id: case for case in report.cases}


class TestFailureText:
    """A broken evaluator or reference gives the same complaint as before."""

    def test_route_mismatch(self, monkeypatch):
        import binsum.verify as verify_mod

        b_real, a_real = verify_mod.b_hypergeom, verify_mod.a_from_b
        monkeypatch.setattr(verify_mod, "b_hypergeom", lambda k, q, j: b_real(k, q, j) + (j == 3))
        monkeypatch.setattr(verify_mod, "a_from_b", lambda k, q, m: a_real(k, q, m) + (m == 2))
        report = run_suite("formulas", Bounds(k_max=1, q_max=2, m_max=3, j_max=4))
        cases = cases_by_id(report)
        b_case = cases["formulas/b-agreement/k1-q2"]
        assert b_case.status == "fail"
        assert b_case.actual == "j=3: terminating series gave -43, direct sum gave -44"
        a_case = cases["formulas/a-agreement/k1-q2"]
        assert a_case.status == "fail"
        assert a_case.actual == "m=2: alternating-b gave 28, double sum gave 27"

    def test_triangle_row_mismatch(self, monkeypatch, tmp_path):
        import binsum.verify as verify_mod
        from binsum.polynomials import Polynomial

        real = verify_mod.omega_poly
        monkeypatch.setattr(
            verify_mod,
            "omega_poly",
            lambda n: real(n) + Polynomial.monomial(1, 3) if n == 3 else real(n),
        )
        report = run_suite("oeis", offline=True, cache_dir=str(tmp_path))
        case = cases_by_id(report)["oeis/A019538-triangle"]
        assert case.status == "fail"
        assert case.actual == "n=3: coefficients [1, 6, 7], reference row [1, 6, 6]"

    def test_triangle_reference_too_short(self, monkeypatch, tmp_path):
        import binsum.oeis as oeis_mod

        real = oeis_mod.fetch_bfile
        monkeypatch.setattr(
            oeis_mod, "fetch_bfile", lambda oeis_id, *a, **kw: real(oeis_id, *a, **kw)[:10]
        )
        report = run_suite("oeis", offline=True, cache_dir=str(tmp_path))
        cases = cases_by_id(report)
        for oeis_id in ("A034839", "A019538", "A123125"):
            case = cases[f"oeis/{oeis_id}-triangle"]
            assert case.status == "fail"
            assert case.actual == "reference file too short"

    def test_refit_mismatch(self, monkeypatch):
        import binsum.verify as verify_mod
        from binsum.polynomials import RationalGF

        monkeypatch.setattr(
            verify_mod, "reconstruct_rational", lambda series, dn, dd: RationalGF([1], [1, -1])
        )
        report = run_suite("tables", Bounds(k_max=0, q_max=0))
        cases = cases_by_id(report)
        row = cases["tables/b-row/k1-q2"]
        assert row.status == "fail"
        assert row.actual == "series fit returned 1/(1 - z), table lists (1 - z)/(1 + 2*z)^2"
        roundtrip = cases["tables/roundtrip/b-table"]
        assert roundtrip.status == "fail"
        assert roundtrip.actual == "k0-q0: refit 1/(1 - z) != 1"
