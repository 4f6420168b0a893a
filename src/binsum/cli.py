"""Command-line front end.

Subcommands: seq (term lists), gf (rational generating functions),
recur (linear recurrences), verify (the verification suites), oeis
(b-file fetch and comparison).  All arithmetic is exact; every format is
deterministic so identical invocations are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage or arithmetic
error, 3 transport or fixture error.  A reader that closes stdout early
(as `| head` does) ends the output quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BFileParseError
from .genfunc import (
    paper_gf,
    paper_seed,
    reconstruct_rational,
    recurrence_from_gf,
    recurrence_terms,
)
from .polynomials import RationalGF
from .sequences import (
    a_double_sum_terms,
    a_hypergeom_terms,
    a_single_sum_terms,
    b_direct,
    b_hypergeom_terms,
    c_direct_terms,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors surface as exceptions, not sys.exit."""

    def error(self, message):
        raise _UsageError(message)


def _ascii(text: str) -> str:
    """text, refused (ValueError) unless it is ASCII without _ separators:
    int() and Fraction() would read any Unicode digit, and 1_0 as 10."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def _q_literal(text: str) -> Fraction:
    try:
        if "e" in text.lower():
            # Fraction would build 10**exponent: minutes for 1e100000000
            raise ValueError(text)
        value = Fraction(_ascii(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"q must be nonnegative, got {text!r}")
    return value


def _int_at_least(minimum: int, word: str):
    """An argparse type for integers >= minimum, whose complaint says word."""

    def parse(text: str) -> int:
        try:
            value = int(_ascii(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {word}, got {value}")
        return value

    return parse


_positive = _int_at_least(1, "positive")
_nonnegative = _int_at_least(0, "nonnegative")


def build_parser() -> _Parser:
    parser = _Parser(prog="binsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # each subcommand's parser by name, which main parses with directly
    parser.commands = sub.choices

    seq = sub.add_parser("seq", help="print sequence terms")
    gf = sub.add_parser("gf", help="print a rational generating function")
    recur = sub.add_parser("recur", help="print the linear recurrence")
    for command, families in ((seq, "abc"), (gf, "ABC"), (recur, "ABC")):
        command.add_argument("--family", choices=tuple(families), required=True)
        command.add_argument("--k", type=_nonnegative)
        command.add_argument("--q", type=_q_literal)
        command.add_argument("--J", type=_nonnegative)

    seq.add_argument("--n-max", type=_positive, default=16)
    seq.add_argument(
        "--format", choices=("text", "csv", "json", "bfile"), default="text"
    )
    seq.add_argument(
        "--via",
        choices=("direct", "single", "series"),
        help="evaluation route; series needs integer q (default: a C-finite "
        "recurrence for families a and b at integer q, else direct)",
    )

    gf.add_argument(
        "--reconstruct",
        action="store_true",
        help="fit the function to series terms instead of building it algebraically",
    )
    gf.add_argument("--format", choices=("text", "json"), default="text")

    recur.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument(
        "--suite",
        default="all",
        help="the suite to run (default: all); an unknown name lists the suites",
    )
    verify.add_argument("--offline", action="store_true")
    verify.add_argument(
        "--timing",
        action="store_true",
        help="report the suite's and each case's wall time in seconds",
    )

    oeis = sub.add_parser("oeis", help="fetch or compare an OEIS b-file")
    oeis.add_argument("--id", required=True)
    oeis.add_argument("--offline", action="store_true")
    oeis.add_argument("--max-terms", type=_positive)
    oeis.add_argument(
        "--compare",
        action="store_true",
        help="compare our terms against the entry (needs a known mapping)",
    )

    return parser


def _json_document(
    family: str,
    k: Optional[int],
    q: Optional[Fraction],
    J: Optional[int],
    terms=None,
    gf: Optional[RationalGF] = None,
    recurrence=None,
) -> str:
    document = {
        "family": family,
        "params": {"k": k, "q": None if q is None else str(q), "J": J},
        "terms": [str(t) for t in terms] if terms is not None else None,
        "gf": None,
        "recurrence": None,
    }
    if gf is not None:
        # a canonical function's two parts have integer coefficients
        document["gf"] = {
            "num": [str(c) for c in gf.numerator.int_coefficients() or (0,)],
            "den": [str(c) for c in gf.denominator.int_coefficients()],
        }
    if recurrence is not None:
        document["recurrence"] = {
            "order": recurrence.order,
            "coeffs": [str(c) for c in recurrence.coefficients],
            "init": [str(t) for t in recurrence.initial_terms],
            "offset": recurrence.offset,
        }
    return json.dumps(document, indent=2)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's cap on int-to-str digits (4,300 by default) while output
    is rendered: exact terms and coefficients can have any number of digits.
    The caller's cap comes back afterwards, since main also runs in process.
    Builds without the cap (before 3.10.7) need nothing."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _family_params(args) -> tuple:
    """The family's (k or J, q), with an integral q as int; the other
    family's parameter is refused rather than echoed."""
    name, other = ("J", "k") if args.family in ("c", "C") else ("k", "J")
    k_or_J = getattr(args, name)
    _require(
        k_or_J is not None and args.q is not None,
        f"family {args.family} requires --{name} and --q",
    )
    _require(getattr(args, other) is None, f"family {args.family} takes --{name}, not --{other}")
    return k_or_J, int(args.q) if args.q.denominator == 1 else args.q


def _seq_values(args) -> list:
    family = args.family
    k_or_J, q = _family_params(args)
    if args.via is None and family != "c" and isinstance(q, int):
        # C-finite at integer q: k+1 seed terms, then the recurrence
        return recurrence_terms(family, k_or_J, q, args.n_max)
    via = args.via or "direct"
    # each route maps (k or J, q, n) to the first n terms; built per call,
    # so the evaluators are the ones the module holds now
    routes = {
        ("a", "direct"): a_double_sum_terms,
        ("a", "single"): a_single_sum_terms,
        ("a", "series"): a_hypergeom_terms,
        ("b", "direct"): lambda k, q, n: [b_direct(k, q, j) for j in range(n)],
        ("b", "series"): b_hypergeom_terms,
        ("c", "direct"): c_direct_terms,
    }
    if (family, via) not in routes:
        vias = [route for f, route in routes if f == family]
        only = "only " if len(vias) == 1 else ""
        raise _UsageError(f"family {family} supports {only}--via {' or '.join(vias)}")
    return routes[family, via](k_or_J, q, args.n_max)


def _cmd_seq(args) -> int:
    values = _seq_values(args)
    with _unlimited_int_digits():
        if args.format == "text":
            print(" ".join(str(v) for v in values))
        elif args.format == "csv":
            print(",".join(str(v) for v in values))
        elif args.format == "bfile":
            for i, v in enumerate(values):
                if v.denominator != 1:
                    raise _UsageError(
                        f"term {i} is {v}; b-file output needs integer terms"
                    )
            print("\n".join(f"{i} {v}" for i, v in enumerate(values)))
        else:
            print(_json_document(args.family, args.k, args.q, args.J, terms=values))
    return EXIT_PASS


def _build_gf(args) -> tuple[RationalGF, str]:
    """Return the requested function and its display variable."""
    family = args.family.lower()
    k_or_J, q = _family_params(args)
    variable = "x" if family == "c" else "z"
    if getattr(args, "reconstruct", False):
        evaluate, _ = paper_seed(family, q)
        # the paper's order bound k + 1 (J + 1 for C) needs 2k + 3 terms;
        # two more are spares the fit must reproduce
        return reconstruct_rational(evaluate(k_or_J, q, 2 * k_or_J + 5)), variable
    return paper_gf(family, k_or_J, q), variable


def _cmd_gf(args) -> int:
    gf, variable = _build_gf(args)
    with _unlimited_int_digits():
        if args.format == "text":
            print(gf.render(variable))
        else:
            print(_json_document(args.family, args.k, args.q, args.J, gf=gf))
    return EXIT_PASS


def _cmd_recur(args) -> int:
    gf, _ = _build_gf(args)
    rec = recurrence_from_gf(gf)
    with _unlimited_int_digits():
        if args.format == "text":
            symbol = args.family.lower()
            line = f"order {rec.order}: {rec.render(symbol)}"
            line += ", init " + ", ".join(str(t) for t in rec.initial_terms)
            if rec.offset:
                line += f", offset {rec.offset}"
            print(line)
        else:
            print(_json_document(args.family, args.k, args.q, args.J, recurrence=rec))
    return EXIT_PASS


# verify and oeis are imported on first use, so seq, gf and recur start
# without loading the release gate
def _cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, offline=args.offline, timing=args.timing)
    print(report.to_json())
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def _cmd_oeis(args) -> int:
    from . import oeis as oeis_mod
    from .verify import compare_pinned

    oeis_mod.validate_oeis_id(args.id)
    if args.compare:
        _require(args.max_terms is None, "--max-terms applies to a fetch, not to --compare")
        mapping = oeis_mod.mapping_for(args.id)
        _require(mapping is not None, f"no known mapping for {args.id}")
        result = compare_pinned(mapping, offline=args.offline)
        print(result.describe())
        return EXIT_PASS if result.matched else EXIT_FAIL
    pairs = oeis_mod.fetch_bfile(args.id, args.max_terms, offline=args.offline)
    for index, value in pairs:
        print(f"{index} {value}")
    return EXIT_PASS


_PARSER = build_parser()
_HANDLERS = {
    "seq": _cmd_seq,
    "gf": _cmd_gf,
    "recur": _cmd_recur,
    "verify": _cmd_verify,
    "oeis": _cmd_oeis,
}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """_PARSER.parse_args(argv), with a named subcommand's arguments parsed
    by its own parser: that is all argparse's dispatch does with them, and
    skipping it halves the parse."""
    if argv is None:
        argv = sys.argv[1:]
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(argv)
        if args.command is None:
            raise _UsageError(f"a subcommand is required ({', '.join(_HANDLERS)})")
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    # the reader closed stdout, as `| head` does: nothing is left to say, and
    # stdout goes to the null device so the flush at exit cannot raise again.
    # SIGPIPE stays ignored, so a socket the fetch writes to raises there and
    # becomes a TransportError; BrokenPipeError is an OSError, so this comes first
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PASS
    # OSError covers TransportError, FixtureMissingError and a cache file
    # that cannot be written; BFileParseError is a ValueError, so this
    # clause comes first
    except (OSError, BFileParseError) as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    # ValueError covers the parameter and fitting errors; ArithmeticError
    # covers ZeroDivisionError, ...
    except (_UsageError, ValueError, ArithmeticError) as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
