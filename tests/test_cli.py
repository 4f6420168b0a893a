"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
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
        def failing(k, q, n):
            raise error

        monkeypatch.setattr(cli, "b_hypergeom_terms", failing)
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

    @pytest.mark.parametrize("q", ["1e10000000", "1E-3"])
    def test_q_with_an_exponent_is_refused_unread(self, q):
        # Fraction would read 1e10000000 by building 10**10000000, which takes
        # seconds; the refusal comes first, so a hang fails the timeout
        src = str(Path(cli.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-m", "binsum.cli", "seq", "--family", "c", "--J", "1",
             "--q", q],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == f"binsum: error: argument --q: not a rational literal: {q!r}\n"

    def test_decimal_q_is_the_fraction(self, capsys):
        argv = ("seq", "--family", "b", "--k", "1", "--n-max", "6", "--q")
        assert run(capsys, *argv, "0.5") == run(capsys, *argv, "1/2")

    @pytest.mark.parametrize(
        "flag, text, complaint",
        [
            ("--k", "\u0663", "not an integer"),  # Arabic-Indic three
            ("--k", "\uff13", "not an integer"),  # fullwidth three
            ("--k", "1_0", "not an integer"),
            ("--k", "\u00a03", "not an integer"),  # after a no-break space
            ("--n-max", "1_000", "not an integer"),
            ("--q", "\u0663", "not a rational literal"),
            ("--q", "1_0", "not a rational literal"),
            ("--q", "1/\u0662", "not a rational literal"),
            ("--q", "0.\u0665", "not a rational literal"),
        ],
    )
    def test_numerals_are_ascii(self, capsys, flag, text, complaint):
        # int() and Fraction() would read each of these as a number
        argv = ["seq", "--family", "a", "--k", "3", "--q", "3", "--n-max", "3"]
        argv[argv.index(flag) + 1] = text
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"binsum: error: argument {flag}: {complaint}: {text!r}\n"

    def test_ascii_numerals_still_read(self, capsys):
        code, out, err = run(
            capsys, "seq", "--family", "a", "--k", "+3", "--q", "3.", "--n-max", " 3"
        )
        assert (code, out, err) == (0, "1 35 420\n", "")

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


def _gf_recur_grid():
    """gf and recur over A, B and C, k or J in {0, 1, 2, 5, 9, 16}, q integer
    and rational, json and text, and gf --reconstruct at k <= 5."""
    for family, name in (("A", "--k"), ("B", "--k"), ("C", "--J")):
        for k in ("0", "1", "2", "5", "9", "16"):
            for q in ("0", "1", "3", "1/2", "2/3", "5/2"):
                for fmt in ("json", "text"):
                    base = ["--family", family, name, k, "--q", q, "--format", fmt]
                    yield ["gf", *base]
                    yield ["recur", *base]
                    if int(k) <= 5:
                        yield ["gf", *base, "--reconstruct"]


# sha256 of (argv, exit code, stdout) over the grid; a change to the bytes
# gf or recur print must be deliberate
PINNED_GF_RECUR_SHA256 = "857ec9c095962ff1ad76558fb2486f684e56086559ba0c8c4ae4b8d677fc2f4e"


def test_gf_and_recur_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    calls = 0
    for argv in _gf_recur_grid():
        code = main(argv)
        digest.update(repr((argv, code, capsys.readouterr().out)).encode())
        calls += 1
    assert calls == 576
    assert digest.hexdigest() == PINNED_GF_RECUR_SHA256


def _seq_grid():
    """seq over a, b and c, every --via and none, k or J in {0, 1, 2, 5, 9},
    q integer and rational, --n-max in {1, 7, 33}, text, json and bfile."""
    for family, name in (("a", "--k"), ("b", "--k"), ("c", "--J")):
        for via in (None, "direct", "single", "series"):
            for k in ("0", "1", "2", "5", "9"):
                for q in ("0", "1", "2", "3", "5", "1/2", "3/2", "2/3"):
                    for n in ("1", "7", "33"):
                        for fmt in ("text", "json", "bfile"):
                            argv = ["seq", "--family", family, name, k, "--q", q,
                                    "--n-max", n, "--format", fmt]
                            yield argv if via is None else [*argv, "--via", via]


# sha256 of (argv, exit code, stdout, stderr) over the grid, errors included;
# a change to the bytes seq prints must be deliberate
PINNED_SEQ_SHA256 = "dfb121d64cffa3b55e3e82a6c5ac9d832ce9c50c8a00fea45e34e9721d2af450"


def test_seq_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    calls = 0
    for argv in _seq_grid():
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(repr((argv, code, captured.out, captured.err)).encode())
        calls += 1
    assert calls == 4320
    assert digest.hexdigest() == PINNED_SEQ_SHA256


class TestVerify:
    def test_appendix_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "appendix")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["wall_time"] is None

    def test_timing_gives_every_case_a_wall_time(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--timing")
        assert code == 0
        doc = json.loads(out)
        assert doc["wall_time"] >= 0
        assert len(doc["cases"]) == 58
        assert all(case["wall_time"] >= 0 for case in doc["cases"])

    def test_no_case_has_a_wall_time_untimed(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        doc = json.loads(out)
        assert doc["wall_time"] is None
        assert not any("wall_time" in case for case in doc["cases"])

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
        # run_suite is the one check of the name, so the parser need not
        # load the suites to list them
        code, out, err = run(capsys, "verify", "--suite", "bogus")
        assert (code, out) == (2, "")
        assert err == (
            "binsum: error: unknown suite 'bogus'; choose from "
            "('all', 'formulas', 'tables', 'identities', 'appendix', 'oeis')\n"
        )


class TestOeis:
    def test_fixture_listing(self, capsys):
        code, out, _ = run(
            capsys, "oeis", "--id", "A027471", "--offline", "--max-terms", "4"
        )
        assert code == 0
        assert out == "1 0\n2 1\n3 6\n4 27\n"

    def test_compare(self, capsys):
        code, out, _ = run(capsys, "oeis", "--id", "A361610", "--offline", "--compare")
        assert code == 0
        assert "match" in out

    def test_compare_refuses_max_terms(self, capsys):
        # the comparison reads every pinned term, so a cap would be ignored
        code, out, err = run(
            capsys, "oeis", "--id", "A027471", "--compare", "--offline", "--max-terms", "5"
        )
        assert (code, out) == (2, "")
        assert err == "binsum: error: --max-terms applies to a fetch, not to --compare\n"

    def test_invalid_id(self, capsys):
        code, _, err = run(capsys, "oeis", "--id", "X123")
        assert code == 2

    def test_non_ascii_digits_are_an_invalid_id(self, capsys):
        # A027471 in Arabic-Indic digits is a usage error, not a missing fixture
        oeis_id = "A\u0660\u0662\u0667\u0664\u0667\u0661"
        code, out, err = run(capsys, "oeis", "--id", oeis_id, "--offline")
        assert (code, out) == (2, "")
        assert err == f"binsum: error: not a valid OEIS id: {oeis_id!r}\n"

    def test_missing_fixture(self, capsys):
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

    def test_compare_non_integral_term(self, capsys, monkeypatch):
        import binsum.verify as verify_mod

        monkeypatch.setattr(verify_mod, "a_single_sum", lambda k, q, m: Fraction(1, 2))
        code, out, err = run(capsys, "oeis", "--id", "A361610", "--offline", "--compare")
        assert code == 2
        assert out == ""
        assert err == "binsum: error: expected an integer value, got 1/2\n"

    def test_compare_without_mapping(self, capsys):
        code, _, err = run(capsys, "oeis", "--id", "A000045", "--offline", "--compare")
        assert code == 2
        assert "no known mapping" in err


@pytest.mark.parametrize(
    "argv, first",
    [
        (("seq", "--family", "a", "--k", "5", "--q", "3", "--n-max", "3000",
          "--format", "bfile"), "0 1\n"),
        (("verify", "--suite", "all", "--offline"), "{\n"),
    ],
)
def test_closed_stdout_ends_quietly(argv, first):
    # a reader such as `head -n 1` closes the pipe after one line; both
    # outputs are far past the 64 KiB a pipe buffers, so the CLI's own write
    # meets the closed pipe rather than racing the reader
    src = str(Path(cli.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "binsum.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        assert child.stdout.readline() == first
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (0, "")


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


# argvs that reach every branch of argparse's dispatch: each subcommand, =
# forms, repeated flags, --, extra arguments, abbreviations, bad choices and
# values, help, and a missing or unknown subcommand
_DISPATCH_GRID = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-x"],
    ["--"],
    ["--", "seq", "--family", "a"],
    ["frobnicate"],
    ["Seq"],
    ["se"],
    ["--family", "a", "seq"],
    ["seq"],
    ["seq", "--family", "a", "--k", "3", "--q", "1/2"],
    ["seq", "--family=b", "--k=1", "--q=2", "--n-max=5", "--format=csv", "--via=series"],
    ["seq", "--family", "a", "--family", "c", "--J", "1", "--J", "2", "--q", "0"],
    ["seq", "--fam", "a", "--n", "3", "--vi", "single"],
    ["seq", "--f", "a"],
    ["seq", "--family", "A"],
    ["seq", "--family", "a", "--format", "xml"],
    ["seq", "--family", "a", "--via", "fast"],
    ["seq", "--family", "a", "--k", "\u0663", "--q", "3"],
    ["seq", "--family", "a", "--k", "-1"],
    ["seq", "--family", "a", "--n-max", "0"],
    ["seq", "--family"],
    ["seq", "--family", "a", "extra"],
    ["seq", "--family", "a", "-k", "3"],
    ["seq", "--", "--family", "a"],
    ["seq", "--family", "a", "--"],
    ["seq", "--family", "a", "--", "extra"],
    ["seq", "--family", "a", "--reconstruct"],
    ["gf", "--family", "A", "--k", "2", "--q", "3"],
    ["gf", "--family", "C", "--J", "1", "--q", "1e5"],
    ["gf", "--family", "a"],
    ["gf", "--family", "B", "--k", "1", "--q", "1/2", "--rec", "--format", "json"],
    ["gf", "--family", "B", "--reconstruct", "--reconstruct"],
    ["recur", "--family", "A", "--k", "1", "--q", "2", "--format", "json"],
    ["recur", "--family", "B", "--k"],
    ["recur", "--family", "B", "--via", "direct"],
    ["verify"],
    ["verify", "--suite=appendix", "--offline", "--timing"],
    ["verify", "--off", "--tim"],
    ["verify", "--suite"],
    ["verify", "x", "y"],
    ["verify", "--", "--offline"],
    ["oeis"],
    ["oeis", "--id", "A027471", "--offline", "--max-terms", "3"],
    ["oeis", "--id=A027471", "--comp", "--max", "2"],
    ["oeis", "--id", "A027471", "more"],
    ["oeis", "--max-terms", "1_0", "--id", "A027471"],
] + [
    [command, *flags]
    for command in ("seq", "gf", "recur", "verify", "oeis")
    for flags in (["-h"], ["--help"], ["--family", "a", "-h"], ["--he"])
]


def _parse_outcome(parse, argv):
    """The namespace parse gives argv, or else its usage error, or else the
    exit code and output of the help it prints."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return "namespace", vars(parse(argv)), err.getvalue()
    except cli._UsageError as exc:
        return "usage", str(exc), out.getvalue(), err.getvalue()
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()


class TestDispatch:
    """main parses a named subcommand with that subcommand's parser; every
    argv reads as the top-level parser's own dispatch reads it."""

    @pytest.mark.parametrize("argv", _DISPATCH_GRID, ids=repr)
    def test_same_as_the_top_level_parse(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        want = _parse_outcome(cli._PARSER.parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == want
        assert _parse_outcome(cli._parse_args, tuple(argv)) == want

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        argv = ["gf", "--family", "A", "--k", "2", "--q", "3"]
        monkeypatch.setattr(sys, "argv", ["binsum", *argv])
        assert cli._parse_args(None) == cli._PARSER.parse_args(argv)

    def test_a_named_subcommand_skips_the_top_level_parser(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        argv = ["recur", "--family", "A", "--k", "1", "--q", "2"]
        monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
        # the console script calls main() with no argv, so sys.argv takes
        # the same path
        monkeypatch.setattr(sys, "argv", ["binsum", *argv])
        for code, out, err in (run(capsys, *argv), (main(), *capsys.readouterr())):
            assert (code, out, err) == (
                0, "order 2: a(n) = 6*a(n-1) - 9*a(n-2), init 1, 6\n", ""
            )
        with pytest.raises(AssertionError, match="top-level"):
            cli._parse_args(["--help"])
