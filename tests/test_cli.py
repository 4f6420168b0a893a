"""Command-line interface: formats, exit codes, determinism."""

import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from binsum import cli, genfunc
from binsum.combinatorics import binomial
from binsum.cli import main
from binsum.oeis import parse_bfile
from binsum.sequences import c_direct


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_csv_row(self, capsys):
        code, out, err = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "2",
            "--n-max", "5", "--format", "csv",
        )
        assert code == 0
        assert out == "1,-5,16,-44,112\n"
        assert err == ""

    def test_text_default(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--family", "a", "--k", "0", "--q", "1", "--n-max", "4"
        )
        assert code == 0
        assert out == "1 2 4 8\n"

    def test_aerated_family(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--family", "c", "--J", "2", "--q", "4", "--n-max", "3"
        )
        assert code == 0
        assert out == "1 15 45\n"

    def test_default_n_max(self, capsys):
        _, out, _ = run(capsys, "seq", "--family", "b", "--k", "0", "--q", "2")
        assert len(out.split()) == 16

    def test_fractional_q(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "1/2", "--n-max", "4"
        )
        assert code == 0
        assert out == "1 -7/8 5/8 -13/32\n"

    def test_bfile_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "3",
            "--n-max", "8", "--format", "bfile",
        )
        assert code == 0
        parsed = parse_bfile(out)
        assert parsed[0] == 1
        assert parsed[2] == 45
        assert len(parsed) == 8

    def test_bfile_rejects_fractions(self, capsys):
        code, out, err = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "1/2",
            "--format", "bfile",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("binsum: error:")
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="this build has no digit cap"
    )
    @pytest.mark.parametrize("fmt", ["bfile", "text", "json"])
    def test_terms_past_the_int_digit_cap(self, capsys, fmt):
        # c(7500, 7500; 1) has 4,514 digits, past CPython's default cap of
        # 4,300 on int-to-str conversion
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(c_direct(7500, 7500, 1))
        finally:
            sys.set_int_max_str_digits(cap)
        assert len(expected) == 4514
        code, out, err = run(
            capsys, "seq", "--family", "c", "--J", "7500", "--q", "7500",
            "--n-max", "2", "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "bfile":
            assert out == f"0 1\n1 {expected}\n"
        elif fmt == "text":
            assert out == f"1 {expected}\n"
        else:
            assert json.loads(out)["terms"] == ["1", expected]
        # the caller's cap is back once main returns
        assert sys.get_int_max_str_digits() == cap

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--family", "a", "--k", "1", "--q", "2",
            "--n-max", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "a"
        assert doc["params"] == {"k": 1, "q": "2", "J": None}
        assert doc["terms"] == ["1", "6", "27", "108"]
        assert doc["gf"] is None
        assert doc["recurrence"] is None

    def test_routes_agree(self, capsys):
        args = ["seq", "--family", "a", "--k", "2", "--q", "2", "--n-max", "8"]
        _, default, _ = run(capsys, *args)
        _, direct, _ = run(capsys, *args, "--via", "direct")
        _, single, _ = run(capsys, *args, "--via", "single")
        _, series, _ = run(capsys, *args, "--via", "series")
        assert default == direct == single == series

    @pytest.mark.parametrize("fmt", ["text", "csv", "json", "bfile"])
    def test_default_route_prints_the_defining_sums(self, capsys, fmt):
        # the default is the recurrence route at integer q and the direct
        # route at q = 1/2; either way the bytes are those of --via direct
        for family in "ab":
            for k in range(7):
                for q in ["0", "1", "2", "3", "4", "5", "1/2"]:
                    args = ["seq", "--family", family, "--k", str(k), "--q", q,
                            "--format", fmt]
                    default = run(capsys, *args)
                    assert default == run(capsys, *args, "--via", "direct")
                    assert default[0] == (2 if q == "1/2" and fmt == "bfile" else 0)

    def test_default_route_by_q(self, capsys, monkeypatch):
        def failing(k, q, n):
            raise ArithmeticError("direct route called")

        monkeypatch.setattr(cli, "a_double_sum_terms", failing)
        monkeypatch.setattr(cli, "b_direct", failing)
        for family in "ab":
            args = ("seq", "--family", family, "--k", "2", "--n-max", "5")
            assert run(capsys, *args, "--q", "3")[0] == 0
            assert run(capsys, *args, "--q", "1/2") == (
                2, "", "binsum: error: direct route called\n"
            )

    def test_single_route_reads_the_prefix(self, capsys, monkeypatch):
        calls = []

        def prefix(k, q, n):
            calls.append((k, q, n))
            return list(range(n))

        monkeypatch.setattr(cli, "a_single_sum_terms", prefix)
        code, out, err = run(
            capsys, "seq", "--family", "a", "--k", "2", "--q", "1/2", "--n-max", "4",
            "--via", "single",
        )
        assert (code, out, err) == (0, "0 1 2 3\n", "")
        assert calls == [(2, Fraction(1, 2), 4)]

    def test_default_route_at_large_k_builds_no_recurrence(self, capsys, monkeypatch):
        # with n_max <= k+1 the seed terms are the whole answer; the k+1
        # coefficients of the annihilator, of up to ~30,000 bits each at
        # this k, would take seconds for the same sixteen terms
        def failing(*args):
            raise AssertionError("recurrence coefficients built")

        monkeypatch.setattr(genfunc, "math", SimpleNamespace(comb=failing))
        for family in "ab":
            args = ("seq", "--family", family, "--k", "20000", "--q", "1", "--n-max", "16")
            default = run(capsys, *args)
            assert default[0] == 0
            assert default == run(capsys, *args, "--via", "direct")

    def test_series_route_needs_integer_q(self, capsys):
        # the message names the route the user picked, not an internal function
        for family, q, message in (
            ("a", "1/2", "the terminating-series route requires integer q, got 1/2"),
            ("b", "1/2", "the terminating-series route requires integer q, got 1/2"),
            ("b", "0", "the terminating-series route for family b requires q >= 1"),
        ):
            code, out, err = run(
                capsys, "seq", "--family", family, "--k", "1", "--q", q,
                "--via", "series",
            )
            assert code == 2
            assert out == ""
            assert err == f"binsum: error: {message}\n"

    @pytest.mark.parametrize(
        "error",
        [ArithmeticError("pole at index 3"), ZeroDivisionError("division by zero")],
    )
    def test_arithmetic_error_is_one_line(self, capsys, monkeypatch, error):
        def failing(k, q, j):
            raise error

        monkeypatch.setattr(cli, "b_hypergeom", failing)
        code, out, err = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "2", "--via", "series"
        )
        assert code == 2
        assert out == ""
        assert err == f"binsum: error: {error}\n"

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "seq", "--family", "b", "--k", "1")
        assert code == 2
        assert err.startswith("binsum: error:")

    def test_bad_q_literal(self, capsys):
        code, _, err = run(capsys, "seq", "--family", "b", "--k", "1", "--q", "x")
        assert code == 2
        assert "rational literal" in err

    def test_c_family_at_rational_q(self, capsys):
        # c(2, 1/2; i) = C(2 + i/2, 2), a polynomial in i at any q
        code, out, err = run(
            capsys, "seq", "--family", "c", "--J", "2", "--q", "1/2", "--n-max", "6"
        )
        assert (code, err) == (0, "")
        assert out == "1 15/8 3 35/8 6 63/8\n"
        assert out.split() == [str(binomial(2 + Fraction(i, 2), 2)) for i in range(6)]

    def test_unsupported_route(self, capsys):
        code, _, err = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "2", "--via", "single"
        )
        assert code == 2
        assert err == "binsum: error: family b supports --via direct or series\n"
        code, _, err = run(
            capsys, "seq", "--family", "c", "--J", "1", "--q", "2", "--via", "series"
        )
        assert code == 2
        assert err == "binsum: error: family c supports only --via direct\n"


class TestGf:
    def test_b_family(self, capsys):
        code, out, _ = run(capsys, "gf", "--family", "B", "--k", "0", "--q", "5")
        assert code == 0
        assert out == "1/(1 + 5*z)\n"

    def test_a_family_canonical(self, capsys):
        code, out, _ = run(capsys, "gf", "--family", "A", "--k", "2", "--q", "3")
        assert code == 0
        assert out == "(1 + 8*z - 12*z^2)/(1 - 4*z)^3\n"

    def test_c_family_uses_x(self, capsys):
        code, out, _ = run(capsys, "gf", "--family", "C", "--J", "2", "--q", "5")
        assert code == 0
        assert out == "(1 + 18*x + 6*x^2)/(1 - x)^3\n"

    def test_c_family_at_rational_q(self, capsys):
        # the Stirling construction is polynomial in q, so it needs no fit
        base = ("gf", "--family", "C", "--J", "3", "--q", "7/3")
        code, built, err = run(capsys, *base)
        assert (code, err) == (0, "")
        assert built == "(81 + 716*x + 236*x^2 - 4*x^3)/(81*(1 - x)^4)\n"
        assert run(capsys, *base, "--reconstruct") == (0, built, "")
        code, out, _ = run(capsys, "recur", "--family", "C", "--J", "2", "--q", "1/2")
        assert code == 0
        assert out == "order 3: c(n) = 3*c(n-1) - 3*c(n-2) + c(n-3), init 1, 15/8, 3\n"

    def test_reconstruct_fractional(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "B", "--k", "1", "--q", "1/2", "--reconstruct"
        )
        assert code == 0
        assert out == "(8 + z)/(2*(2 + z)^2)\n"

    def test_reconstruct_matches_algebraic(self, capsys):
        _, direct, _ = run(capsys, "gf", "--family", "A", "--k", "1", "--q", "2")
        _, refit, _ = run(
            capsys, "gf", "--family", "A", "--k", "1", "--q", "2", "--reconstruct"
        )
        assert direct == refit == "1/(1 - 3*z)^2\n"

    def test_each_build_reads_one_prefix(self, capsys, monkeypatch):
        # the seeds of a build come from one prefix call, not one point sum
        # per index; recurrence_terms reads no more than it returns
        calls = []
        real = genfunc.a_single_sum_terms

        def prefix(k, q, n):
            calls.append((k, q, n))
            return real(k, q, n)

        monkeypatch.setattr(genfunc, "a_single_sum_terms", prefix)
        for build, want in (
            (lambda: genfunc.paper_gf("a", 5, 3), (5, 3, 6)),
            (lambda: genfunc.recurrence_terms("a", 5, 3, 40), (5, 3, 6)),
            (lambda: genfunc.recurrence_terms("a", 5, 3, 4), (5, 3, 4)),
        ):
            calls.clear()
            build()
            assert calls == [want]
        calls.clear()
        code, out, err = run(
            capsys, "gf", "--family", "A", "--k", "5", "--q", "3", "--reconstruct"
        )
        assert (code, err, calls) == (0, "", [(5, 3, 15)])
        assert out == genfunc.paper_gf("a", 5, 3).render() + "\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "B", "--k", "1", "--q", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["gf"] == {"num": ["1", "-1"], "den": ["1", "4", "4"]}
        assert doc["terms"] is None

    def test_integer_q_required_without_reconstruct(self, capsys):
        # integer q is not required: the paper's denominators hold at every
        # rational q, so the function built from k+1 terms is the fit's
        code, out, err = run(capsys, "gf", "--family", "B", "--k", "1", "--q", "1/2")
        assert (code, err) == (0, "")
        assert out == "(8 + z)/(2*(2 + z)^2)\n"
        for family in "AB":
            for q in ("1/2", "7/3"):
                base = ("gf", "--family", family, "--k", "3", "--q", q, "--format", "json")
                built = run(capsys, *base)
                assert built[0] == 0
                assert built == run(capsys, *base, "--reconstruct")

    def test_other_family_parameter_is_refused(self, capsys):
        for argv, message in (
            (("gf", "--family", "C", "--J", "2", "--k", "7"), "family C takes --J, not --k"),
            (("gf", "--family", "A", "--k", "2", "--J", "7"), "family A takes --k, not --J"),
            (("recur", "--family", "B", "--k", "1", "--J", "0"), "family B takes --k, not --J"),
            (("seq", "--family", "a", "--k", "2", "--J", "5", "--format", "json"),
             "family a takes --k, not --J"),
            (("seq", "--family", "c", "--J", "2", "--k", "5"), "family c takes --J, not --k"),
        ):
            assert run(capsys, *argv, "--q", "1") == (2, "", f"binsum: error: {message}\n")

    def test_degree_flags_are_usage_errors(self, capsys):
        # the fit finds the order itself, so the old degree options are gone
        base = ("gf", "--family", "A", "--k", "2", "--q", "2", "--reconstruct")
        for flag in ("--num-degree", "--den-degree"):
            code, out, err = run(capsys, *base, flag, "2")
            assert code == 2
            assert out == ""
            assert err == f"binsum: error: unrecognized arguments: {flag} 2\n"

    def test_degree_flags_require_reconstruct(self, capsys):
        # without --reconstruct the degree options were refused; they still
        # are, and the fit alone gives what the old degrees (2, 3) forced
        base = ("gf", "--family", "A", "--k", "2", "--q", "2")
        for flags in (
            ("--num-degree", "1", "--den-degree", "0"),
            ("--num-degree", "1"),
            ("--den-degree", "0"),
        ):
            code, out, err = run(capsys, *base, *flags)
            assert code == 2
            assert out == ""
            assert err == f"binsum: error: unrecognized arguments: {' '.join(flags)}\n"
        code, out, _ = run(capsys, *base, "--reconstruct")
        assert code == 0
        assert out == "(1 + z - 3*z^2)/(1 - 3*z)^3\n"

    def test_c_family_reconstruct_degrees_too_low(self, capsys, monkeypatch):
        base = ("gf", "--family", "C", "--J", "3", "--q", "2", "--reconstruct")
        code, out, err = run(capsys, *base, "--den-degree", "1")
        assert code == 2
        assert out == ""
        assert err == "binsum: error: unrecognized arguments: --den-degree 1\n"
        # C(3, 2; x) has order 4, so eight terms are one short of fixing it
        monkeypatch.setattr(
            cli, "reconstruct_rational", lambda s: genfunc.reconstruct_rational(s[:8])
        )
        code, out, err = run(capsys, *base)
        assert code == 2
        assert out == ""
        assert err == (
            "binsum: error: need at least 9 terms to fit a recurrence of order 4, got 8\n"
        )

    def test_c_family_reconstruct(self, capsys):
        code, out, err = run(
            capsys, "gf", "--family", "C", "--J", "2", "--q", "2", "--reconstruct"
        )
        assert code == 0
        assert out == "(1 + 3*x)/(1 - x)^3\n"
        assert err == ""


class TestRecur:
    def test_a_family(self, capsys):
        code, out, _ = run(capsys, "recur", "--family", "A", "--k", "1", "--q", "2")
        assert code == 0
        assert out == "order 2: a(n) = 6*a(n-1) - 9*a(n-2), init 1, 6\n"

    def test_b_first_order(self, capsys):
        code, out, _ = run(capsys, "recur", "--family", "B", "--k", "0", "--q", "4")
        assert code == 0
        assert out == "order 1: b(n) = -4*b(n-1), init 1\n"

    def test_b_second_order(self, capsys):
        code, out, _ = run(capsys, "recur", "--family", "B", "--k", "1", "--q", "1")
        assert code == 0
        assert out.startswith("order 2:")

    def test_integer_q_required(self, capsys):
        # integer q is not required: A(1, 1/2; z) = (8 - 9z)/(2 (2 - 3z)^2)
        code, out, err = run(capsys, "recur", "--family", "A", "--k", "1", "--q", "1/2")
        assert (code, err) == (0, "")
        assert out == "order 2: a(n) = 3*a(n-1) - 9/4*a(n-2), init 1, 15/8\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "recur", "--family", "A", "--k", "1", "--q", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["recurrence"] == {
            "order": 2,
            "coeffs": ["6", "-9"],
            "init": ["1", "6"],
            "offset": 0,
        }


class TestVerify:
    def test_appendix_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "appendix")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["wall_time"] is None

    def test_byte_identical_runs(self, capsys):
        args = ("verify", "--suite", "identities")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("flag", ["--k-max", "--q-max", "--m-max", "--j-max"])
    def test_grid_flags_are_gone(self, capsys, flag):
        # verify runs one fixed grid; the gate's wider grids run under pytest
        code, out, err = run(capsys, "verify", "--suite", "appendix", flag, "3")
        assert (code, out) == (2, "")
        assert err == f"binsum: error: unrecognized arguments: {flag} 3\n"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert err.startswith("binsum: error:")
        assert err.count("\n") == 1


class TestOeis:
    def test_fixture_listing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, "oeis", "--id", "A027471", "--offline", "--max-terms", "4"
        )
        assert code == 0
        assert out == "1 0\n2 1\n3 6\n4 27\n"

    def test_compare(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "oeis", "--id", "A361610", "--offline", "--compare")
        assert code == 0
        assert "match" in out

    def test_compare_refuses_max_terms(self, capsys, monkeypatch, tmp_path):
        # the comparison reads every pinned term, so a cap would be ignored
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        code, out, err = run(
            capsys, "oeis", "--id", "A027471", "--compare", "--offline", "--max-terms", "5"
        )
        assert (code, out) == (2, "")
        assert err == "binsum: error: --max-terms applies to a fetch, not to --compare\n"

    def test_invalid_id(self, capsys):
        code, _, err = run(capsys, "oeis", "--id", "X123")
        assert code == 2

    def test_missing_fixture(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        code, _, err = run(capsys, "oeis", "--id", "A000001", "--offline")
        assert code == 3
        assert err.startswith("binsum: error:")

    def test_corrupt_cache_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        (tmp_path / "b027471.txt").write_text("garbage line\n")
        code, out, err = run(capsys, "oeis", "--id", "A027471", "--offline")
        assert code == 3
        assert out == ""
        assert err == (
            f"binsum: error: corrupt cache file {tmp_path / 'b027471.txt'}: line 1: "
            "non-integer field in 'garbage line'; delete it to re-fetch\n"
        )

    def test_non_utf8_cache_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        (tmp_path / "b027471.txt").write_bytes(b"\xff\xfe0 1\n")
        code, out, err = run(capsys, "oeis", "--id", "A027471", "--offline")
        assert code == 3
        assert out == ""
        assert err == (
            f"binsum: error: corrupt cache file {tmp_path / 'b027471.txt'}: line 1: "
            "not UTF-8 text; delete it to re-fetch\n"
        )

    def test_unwritable_cache(self, capsys, monkeypatch, tmp_path):
        # the cache directory would sit under a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(blocker / "cache"))
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: io.BytesIO(b"0 1\n1 2\n")
        )
        code, out, err = run(capsys, "oeis", "--id", "A000001")
        assert code == 3
        assert out == ""
        assert err.startswith(
            f"binsum: error: could not write cache file {blocker / 'cache' / 'b000001.txt'}: "
        )
        assert err.count("\n") == 1
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_compare_non_integral_term(self, capsys, monkeypatch, tmp_path):
        import binsum.verify as verify_mod

        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(verify_mod, "a_single_sum", lambda k, q, m: Fraction(1, 2))
        code, out, err = run(capsys, "oeis", "--id", "A361610", "--offline", "--compare")
        assert code == 2
        assert out == ""
        assert err == "binsum: error: expected an integer value, got 1/2\n"

    def test_compare_without_mapping(self, capsys):
        code, _, err = run(capsys, "oeis", "--id", "A000045", "--offline", "--compare")
        assert code == 2
        assert "no known mapping" in err


def test_no_subcommand(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert out == ""
    assert err == "binsum: error: a subcommand is required (seq, gf, recur, verify, oeis)\n"


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("binsum: error:")


class TestParserReuse:
    """One parser serves every main call of a process; no call leaks into the next."""

    def test_usage_errors_then_valid_call(self, capsys):
        code, out, err = run(capsys, "seq", "--family", "a")
        assert (code, out, err) == (2, "", "binsum: error: family a requires --k and --q\n")
        code, out, err = run(capsys, "seq", "--family", "b", "--n-max", "0")
        assert (code, out, err) == (
            2, "", "binsum: error: argument --n-max: must be positive, got 0\n"
        )
        code, out, err = run(
            capsys, "seq", "--family", "b", "--k", "1", "--q", "2",
            "--n-max", "5", "--format", "csv",
        )
        assert (code, out, err) == (0, "1,-5,16,-44,112\n", "")

    def test_gf_after_recur_keeps_gf_defaults(self, capsys):
        code, out, _ = run(
            capsys, "recur", "--family", "A", "--k", "1", "--q", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["recurrence"]["coeffs"] == ["6", "-9"]
        code, out, err = run(capsys, "gf", "--family", "A", "--k", "1", "--q", "2")
        assert (code, out, err) == (0, "1/(1 - 3*z)^2\n", "")
