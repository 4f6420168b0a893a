"""Command-line interface: formats, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from binsum.cli import main
from binsum.oeis import parse_bfile


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
        _, direct, _ = run(capsys, *args)
        _, single, _ = run(capsys, *args, "--via", "single")
        _, series, _ = run(capsys, *args, "--via", "series")
        assert direct == single == series

    def test_series_route_needs_integer_q(self, capsys):
        code, out, err = run(
            capsys, "seq", "--family", "a", "--k", "1", "--q", "1/2",
            "--via", "series",
        )
        assert code == 2
        assert "integer q" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "seq", "--family", "b", "--k", "1")
        assert code == 2
        assert err.startswith("binsum: error:")

    def test_bad_q_literal(self, capsys):
        code, _, err = run(capsys, "seq", "--family", "b", "--k", "1", "--q", "x")
        assert code == 2
        assert "rational literal" in err

    def test_c_family_needs_integer_q(self, capsys):
        code, _, err = run(capsys, "seq", "--family", "c", "--J", "2", "--q", "1/2")
        assert code == 2

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

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "B", "--k", "1", "--q", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["gf"] == {"num": ["1", "-1"], "den": ["1", "4", "4"]}
        assert doc["terms"] is None

    def test_integer_q_required_without_reconstruct(self, capsys):
        code, _, err = run(capsys, "gf", "--family", "B", "--k", "1", "--q", "1/2")
        assert code == 2
        assert err == "binsum: error: family B requires integer q (or --reconstruct)\n"


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
        # recur has no --reconstruct, so the error must not suggest it
        code, out, err = run(capsys, "recur", "--family", "B", "--k", "1", "--q", "1/2")
        assert code == 2
        assert out == ""
        assert err == "binsum: error: family B requires integer q\n"

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
        args = ("verify", "--suite", "identities", "--j-max", "6")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_range_flags(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "formulas",
            "--k-max", "2", "--q-max", "2", "--m-max", "8", "--j-max", "6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["fail"] == 0

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

    def test_invalid_id(self, capsys):
        code, _, err = run(capsys, "oeis", "--id", "X123")
        assert code == 2

    def test_missing_fixture(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        code, _, err = run(capsys, "oeis", "--id", "A000001", "--offline")
        assert code == 3
        assert err.startswith("binsum: error:")

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
