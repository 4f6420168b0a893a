"""b-file parsing, fixture/cache resolution, and term comparison."""

import io
import os
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

from binsum.errors import BFileParseError, FixtureMissingError, TransportError
from binsum.oeis import (
    PINNED_MAPPINGS,
    cache_path,
    compare_terms,
    fetch_bfile,
    mapping_for,
    parse_bfile,
    validate_oeis_id,
)
import binsum
from binsum.verify import compare_pinned


class FakeResponse(io.BytesIO):
    """Stands in for the context manager urlopen returns."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestParseBfile:
    def test_basic(self):
        text = "# comment\n0 1\n1 -5\n\n2 16\n"
        assert parse_bfile(text) == {0: 1, 1: -5, 2: 16}

    def test_whitespace_tolerant(self):
        assert parse_bfile("  3   99  ") == {3: 99}

    def test_negative_indices_allowed(self):
        assert parse_bfile("-1 7\n0 8") == {-1: 7, 0: 8}

    def test_wrong_field_count(self):
        with pytest.raises(BFileParseError) as info:
            parse_bfile("0 1\n1 2 3\n")
        assert info.value.line_number == 2

    def test_non_integer_field(self):
        with pytest.raises(BFileParseError) as info:
            parse_bfile("0 1\n1 x\n")
        assert info.value.line_number == 2

    def test_duplicate_index(self):
        with pytest.raises(BFileParseError) as info:
            parse_bfile("0 1\n0 2\n")
        assert info.value.line_number == 2

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int conversion digit limit"
    )
    def test_term_past_the_int_digit_limit(self):
        # binsum seq --family c --J 7500 --q 7500 writes a 4,514-digit term
        caller_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(BFileParseError) as info:
                parse_bfile("0 1\n1 " + "18" * 2257 + "\n")
        finally:
            sys.set_int_max_str_digits(caller_limit)
        assert info.value.line_number == 2
        assert str(info.value) == (
            "line 2: a 4514-digit term exceeds this Python's int conversion limit of "
            "4300 digits (sys.get_int_max_str_digits()); run with "
            "PYTHONINTMAXSTRDIGITS=0 to read it"
        )


class TestIdValidation:
    def test_accepts_standard_ids(self):
        assert validate_oeis_id("A027471") == "A027471"
        assert validate_oeis_id("A0000045") == "A0000045"

    @pytest.mark.parametrize("bad", ["X123", "A12", "a027471", "A1234567890", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_oeis_id(bad)


class TestCachePath:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path))
        assert cache_path("A027471") == tmp_path / "b027471.txt"

    def test_argument_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BINSUM_CACHE_DIR", "/nonexistent")
        assert cache_path("A027471", str(tmp_path)) == tmp_path / "b027471.txt"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("BINSUM_CACHE_DIR", raising=False)
        path = cache_path("A019538")
        assert path.name == "b019538.txt"
        assert ".cache" in str(path)


class TestFetch:
    def test_offline_fixture(self, tmp_path):
        pairs = fetch_bfile("A027471", offline=True, cache_dir=str(tmp_path))
        assert pairs[0] == (1, 0)
        assert pairs[1] == (2, 1)
        assert pairs[4] == (5, 108)
        assert len(pairs) == 45

    def test_max_terms(self, tmp_path):
        pairs = fetch_bfile("A027471", 5, offline=True, cache_dir=str(tmp_path))
        assert len(pairs) == 5

    def test_offline_miss(self, tmp_path):
        with pytest.raises(FixtureMissingError):
            fetch_bfile("A000001", offline=True, cache_dir=str(tmp_path))

    def test_cache_preferred_over_fixture(self, tmp_path):
        (tmp_path / "b027471.txt").write_text("0 42\n")
        pairs = fetch_bfile("A027471", offline=True, cache_dir=str(tmp_path))
        assert pairs == [(0, 42)]

    def test_corrupt_cache_names_the_file(self, tmp_path):
        path = tmp_path / "b027471.txt"
        path.write_text("garbage line\n")
        with pytest.raises(BFileParseError) as info:
            fetch_bfile("A027471", offline=True, cache_dir=str(tmp_path))
        assert str(info.value) == (
            f"corrupt cache file {path}: line 1: non-integer field in "
            "'garbage line'; delete it to re-fetch"
        )
        assert info.value.line_number == 1
        path.unlink()
        assert fetch_bfile("A027471", 2, offline=True, cache_dir=str(tmp_path)) == [
            (1, 0),
            (2, 1),
        ]

    def test_non_utf8_cache_names_the_file(self, tmp_path):
        path = tmp_path / "b027471.txt"
        path.write_bytes(b"0 1\n\xff\xfe0 1\n")
        with pytest.raises(BFileParseError) as info:
            fetch_bfile("A027471", offline=True, cache_dir=str(tmp_path))
        assert str(info.value) == (
            f"corrupt cache file {path}: line 2: not UTF-8 text; "
            "delete it to re-fetch"
        )
        assert info.value.line_number == 2

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int conversion digit limit"
    )
    def test_long_term_cache_does_not_say_re_fetch(self, tmp_path):
        # the file is well formed: a fresh copy would bring the same term back
        path = tmp_path / "b027471.txt"
        path.write_text("0 1\n1 " + "18" * 2257 + "\n")
        caller_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(BFileParseError) as info:
                fetch_bfile("A027471", offline=True, cache_dir=str(tmp_path))
        finally:
            sys.set_int_max_str_digits(caller_limit)
        assert str(info.value) == (
            f"corrupt cache file {path}: line 2: a 4514-digit term exceeds this "
            "Python's int conversion limit of 4300 digits "
            "(sys.get_int_max_str_digits()); run with PYTHONINTMAXSTRDIGITS=0 to read it"
        )
        assert info.value.line_number == 2

    def test_malformed_id(self):
        with pytest.raises(ValueError):
            fetch_bfile("X123")

    def test_network_failure_is_transport_error(self, tmp_path, monkeypatch):
        def boom(url, timeout):
            raise urllib.error.URLError("no route")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        with pytest.raises(TransportError):
            fetch_bfile("A027471", cache_dir=str(tmp_path))

    def test_online_fetch_writes_cache(self, tmp_path, monkeypatch):
        payload = b"# header\n0 7\n1 9\n"

        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: FakeResponse(payload)
        )
        pairs = fetch_bfile("A999999", cache_dir=str(tmp_path))
        assert pairs == [(0, 7), (1, 9)]
        assert (tmp_path / "b999999.txt").read_bytes() == payload
        # second call must hit the cache, not the (removed) network
        monkeypatch.undo()
        assert fetch_bfile("A999999", cache_dir=str(tmp_path)) == [(0, 7), (1, 9)]

    def test_malformed_remote_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda url, timeout: FakeResponse(b"0 1\nbroken line here\n"),
        )
        with pytest.raises(BFileParseError):
            fetch_bfile("A999998", cache_dir=str(tmp_path))
        assert not (tmp_path / "b999998.txt").exists()

    def test_non_utf8_remote_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: FakeResponse(b"\xff")
        )
        with pytest.raises(BFileParseError) as info:
            fetch_bfile("A999997", cache_dir=str(tmp_path))
        assert str(info.value) == "line 1: not UTF-8 text"
        assert not (tmp_path / "b999997.txt").exists()


    def test_failed_cache_write_names_the_file_and_cleans_up(self, tmp_path, monkeypatch):
        # a directory where the cache file goes: the temporary file is
        # written, and replacing the directory with it fails
        (tmp_path / "b999996.txt" / "entry").mkdir(parents=True)
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: FakeResponse(b"0 1\n")
        )
        with pytest.raises(OSError) as info:
            fetch_bfile("A999996", cache_dir=str(tmp_path))
        assert str(info.value).startswith(
            f"could not write cache file {tmp_path / 'b999996.txt'}: "
        )
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_offline_import_leaves_urllib_request_out(self):
        # urllib.request loads http.client, ssl and email; only a network
        # fetch imports it, so a fresh interpreter importing the CLI does not
        src = str(Path(binsum.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, binsum.cli; print('urllib.request' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

class TestCompareTerms:
    def test_pinned_shift(self):
        computed = [10, 20, 30] + list(range(100, 125))
        reference = {i + 3: v for i, v in enumerate(computed)}
        result = compare_terms(computed, reference, "A000000", pinned_shift=3)
        assert result.matched
        assert result.shift == 3
        assert result.overlap == len(computed)

    def test_perturbed_term_detected(self):
        computed = [i * i * i for i in range(30)]
        reference = {i: v for i, v in enumerate(computed)}
        reference[11] += 1
        result = compare_terms(computed, reference, "A000000", pinned_shift=0)
        assert not result.matched
        assert result.first_divergence == (11, 1331, 1332)
        assert "mismatch at our index 11" in result.describe()

    def test_insufficient_overlap(self):
        computed = [1, 2, 3]
        reference = {0: 1, 1: 2, 2: 3}
        result = compare_terms(computed, reference, "A000001", pinned_shift=0)
        assert not result.matched  # only 3 agreeing terms, threshold is 20
        assert result.first_divergence is None
        assert result.describe() == "A000001: only 3 terms overlap at shift +0, need 20"

    def test_describe_on_match(self):
        computed = list(range(25))
        reference = {i: v for i, v in enumerate(computed)}
        result = compare_terms(computed, reference, "A000123", pinned_shift=0)
        assert result.describe() == "A000123: match, shift +0, 25 terms compared"


class TestMappings:
    def test_pinned_ids_present(self):
        ids = {m.oeis_id for m in PINNED_MAPPINGS}
        assert ids == {"A027471", "A361608", "A361609", "A361610"}

    def test_mapping_lookup(self):
        assert mapping_for("A027471").offset_shift == 2
        assert mapping_for("A361609").params == (2, 3)
        assert mapping_for("A000045") is None

    def test_compare_with_oeis_offline(self, tmp_path):
        mapping = mapping_for("A361609")
        result = compare_pinned(mapping, offline=True, cache_dir=str(tmp_path))
        assert result.matched
        assert result.shift == 0
        assert result.overlap >= 20

    def test_shifted_mapping_offline(self, tmp_path):
        mapping = mapping_for("A027471")
        result = compare_pinned(mapping, offline=True, cache_dir=str(tmp_path))
        assert result.matched
        assert result.shift == 2
