"""OEIS b-file access and term comparison.

A b-file is the plain-text term listing OEIS serves for each sequence:
one ``index value`` pair per line, ``#`` comment lines and blank lines
ignored.  This module parses that format, fetches files over HTTP with a
local cache, falls back to bundled fixtures when offline, and compares a
computed term list against the reference terms at the index shift its
mapping pins.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .errors import BFileParseError, FixtureMissingError, TransportError

__all__ = [
    "OeisMapping",
    "ComparisonResult",
    "PINNED_MAPPINGS",
    "parse_bfile",
    "cache_path",
    "fetch_bfile",
    "validate_oeis_id",
    "compare_terms",
    "mapping_for",
]

_ID_PATTERN = re.compile(r"\AA\d{6,7}\Z")
_BFILE_URL = "https://oeis.org/{id}/b{digits}.txt"
# seconds a b-file fetch may wait on the network
_FETCH_TIMEOUT = 10.0
_INT_FIELD = re.compile(r"[+-]?\d+")

# agreeing terms a comparison needs before it counts as a match
_MIN_OVERLAP = 20


def validate_oeis_id(oeis_id: str) -> str:
    """Return the id unchanged if it looks like A000000..., else raise."""
    if not _ID_PATTERN.match(oeis_id):
        raise ValueError(f"not a valid OEIS id: {oeis_id!r}")
    return oeis_id


def parse_bfile(text: str) -> dict[int, int]:
    """Parse b-file text into an index -> value map.

    Lines starting with ``#`` and blank lines are skipped.  Anything else
    must be two integer fields; violations raise BFileParseError carrying
    the 1-based line number.
    """
    terms: dict[int, int] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(
                f"line {line_number}: expected 'index value', got {raw!r}",
                line_number=line_number,
            )
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            problem = f"non-integer field in {raw!r}"
            refetch_helps = True
            if all(_INT_FIELD.fullmatch(field) for field in fields):
                # well-formed, so int() refused a term for its length
                digits = max(len(field.lstrip("+-")) for field in fields)
                problem = (
                    f"a {digits}-digit term exceeds this Python's int conversion limit of "
                    f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits()); "
                    "run with PYTHONINTMAXSTRDIGITS=0 to read it"
                )
                refetch_helps = False
            raise BFileParseError(
                f"line {line_number}: {problem}", line_number, refetch_helps
            ) from None
        if index in terms:
            raise BFileParseError(
                f"line {line_number}: duplicate index {index}",
                line_number=line_number,
            )
        terms[index] = value
    return terms


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        raise BFileParseError(f"line {line_number}: not UTF-8 text", line_number) from None


def cache_path(oeis_id: str, cache_dir: Optional[str] = None) -> Path:
    """Resolve the on-disk cache location for a sequence's b-file."""
    if cache_dir is None:
        cache_dir = os.environ.get("BINSUM_CACHE_DIR")
    if cache_dir is None:
        cache_dir = os.path.join(os.path.expanduser("~"), ".cache", "binsum")
    return Path(cache_dir) / f"b{oeis_id[1:]}.txt"


def _fixture_text(oeis_id: str) -> str:
    name = f"b{oeis_id[1:]}.txt"
    ref = resources.files("binsum.fixtures") / name
    if not ref.is_file():
        raise FixtureMissingError(
            f"no bundled fixture for {oeis_id} (looked for fixtures/{name})"
        )
    return ref.read_text()


def fetch_bfile(
    oeis_id: str,
    max_terms: Optional[int] = None,
    *,
    offline: bool = False,
    cache_dir: Optional[str] = None,
) -> list[tuple[int, int]]:
    """Return the sequence's reference terms as (index, value) pairs.

    Pairs come back sorted by index, truncated to max_terms when given.
    Offline mode reads the cache, then the bundled fixture; a miss on both
    raises FixtureMissingError.  Online mode fetches from oeis.org and
    writes the cache atomically; network failure raises TransportError, and
    a cache file that cannot be written raises OSError naming it.
    A cache file that does not parse, or is not UTF-8, raises BFileParseError
    naming the file and, unless a re-fetch would bring the same failure back,
    saying to delete it; a fetched file that does not parse raises it too and
    is not cached.
    """
    validate_oeis_id(oeis_id)
    path = cache_path(oeis_id, cache_dir)

    if path.is_file():
        try:
            terms = parse_bfile(_decode(path.read_bytes()))
        except BFileParseError as exc:
            hint = "; delete it to re-fetch" if exc.refetch_helps else ""
            raise BFileParseError(
                f"corrupt cache file {path}: {exc}{hint}",
                line_number=exc.line_number,
                refetch_helps=exc.refetch_helps,
            ) from exc
    elif offline:
        terms = parse_bfile(_fixture_text(oeis_id))
    else:
        # imported here: urllib.request pulls in http.client, ssl and email,
        # which an offline run never uses
        import urllib.error
        import urllib.request

        digits = oeis_id[1:]
        url = _BFILE_URL.format(id=oeis_id, digits=digits)
        try:
            with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT) as response:
                data = response.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise TransportError(f"could not fetch {url}: {exc}") from exc
        terms = parse_bfile(_decode(data))  # validate before caching
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except OSError as exc:
            if tmp_name is not None:
                os.unlink(tmp_name)
            raise OSError(f"could not write cache file {path}: {exc}") from exc

    pairs = sorted(terms.items())
    if max_terms is not None:
        pairs = pairs[:max_terms]
    return pairs


@dataclass(frozen=True)
class OeisMapping:
    """How a(k, q; m) lines up with an OEIS entry: term m is the entry's
    term m + offset_shift."""

    oeis_id: str
    params: tuple  # (k, q)
    offset_shift: int


PINNED_MAPPINGS: tuple[OeisMapping, ...] = (
    # n*3^(n-1) shifted; file starts at index 1 with a leading 0
    OeisMapping("A027471", (1, 2), 2),
    OeisMapping("A361609", (2, 3), 0),
    OeisMapping("A361610", (3, 4), 0),
    OeisMapping("A361608", (5, 6), 0),
)


@dataclass(frozen=True)
class ComparisonResult:
    oeis_id: str
    shift: int
    overlap: int
    matched: bool
    first_divergence: Optional[tuple[int, int, int]]  # (our index, ours, theirs)

    def describe(self) -> str:
        if self.matched:
            return (
                f"{self.oeis_id}: match, shift {self.shift:+d}, "
                f"{self.overlap} terms compared"
            )
        if self.first_divergence is None:
            return (
                f"{self.oeis_id}: only {self.overlap} terms overlap at shift "
                f"{self.shift:+d}, need {_MIN_OVERLAP}"
            )
        index, ours, theirs = self.first_divergence
        return (
            f"{self.oeis_id}: mismatch at our index {index}: "
            f"computed {ours}, reference {theirs}"
        )


def compare_terms(
    computed: Sequence[int],
    reference: dict[int, int],
    oeis_id: str,
    *,
    pinned_shift: int,
) -> ComparisonResult:
    """Match computed[i] against reference[i + pinned_shift] wherever the
    reference has that index; a match needs every such pair to agree and at
    least _MIN_OVERLAP of them."""
    overlap = 0
    for i, ours in enumerate(computed):
        theirs = reference.get(i + pinned_shift)
        if theirs is None:
            continue
        if ours != theirs:
            return ComparisonResult(oeis_id, pinned_shift, overlap, False, (i, ours, theirs))
        overlap += 1
    return ComparisonResult(oeis_id, pinned_shift, overlap, overlap >= _MIN_OVERLAP, None)


def mapping_for(oeis_id: str) -> Optional[OeisMapping]:
    for mapping in PINNED_MAPPINGS:
        if mapping.oeis_id == oeis_id:
            return mapping
    return None
