"""Command-line front end.

Subcommands: seq (term lists), gf (rational generating functions),
recur (linear recurrences), verify (the verification suites), oeis
(b-file fetch and comparison).  All arithmetic is exact; every format is
deterministic so identical invocations are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 transport or fixture error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import oeis as oeis_mod
from .errors import (
    BFileParseError,
    FixtureMissingError,
    NeedsMoreTermsError,
    NoRationalFitError,
    TransportError,
    UnsupportedParameterError,
)
from .genfunc import A_gf, B_gf, C_gf_stirling, reconstruct_rational, recurrence_from_gf
from .polynomials import RationalGF
from .sequences import (
    a_double_sum,
    a_hypergeom,
    a_single_sum,
    b_direct,
    b_hypergeom,
    c_direct,
)
from .verify import SUITE_NAMES, Bounds, compare_pinned, run_suite

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


def _q_literal(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"q must be nonnegative, got {text!r}")
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="binsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    seq = sub.add_parser("seq", help="print sequence terms")
    seq.add_argument("--family", choices=("a", "b", "c"), required=True)
    seq.add_argument("--k", type=_nonnegative)
    seq.add_argument("--q", type=_q_literal)
    seq.add_argument("--J", type=_nonnegative)
    seq.add_argument("--n-max", type=_positive, default=16)
    seq.add_argument(
        "--format", choices=("text", "csv", "json", "bfile"), default="text"
    )
    seq.add_argument(
        "--via",
        choices=("direct", "single", "series"),
        default="direct",
        help="evaluation route; series needs integer q",
    )

    gf = sub.add_parser("gf", help="print a rational generating function")
    gf.add_argument("--family", choices=("A", "B", "C"), required=True)
    gf.add_argument("--k", type=_nonnegative)
    gf.add_argument("--q", type=_q_literal)
    gf.add_argument("--J", type=_nonnegative)
    gf.add_argument(
        "--reconstruct",
        action="store_true",
        help="fit the function to series terms instead of building it algebraically",
    )
    gf.add_argument("--num-degree", type=_nonnegative)
    gf.add_argument("--den-degree", type=_nonnegative)
    gf.add_argument("--format", choices=("text", "json"), default="text")

    recur = sub.add_parser("recur", help="print the linear recurrence")
    recur.add_argument("--family", choices=("A", "B", "C"), required=True)
    recur.add_argument("--k", type=_nonnegative)
    recur.add_argument("--q", type=_q_literal)
    recur.add_argument("--J", type=_nonnegative)
    recur.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--offline", action="store_true")
    verify.add_argument("--timing", action="store_true")
    for field in dataclasses.fields(Bounds):  # --k-max, --q-max, --m-max, --j-max
        verify.add_argument(
            "--" + field.name.replace("_", "-"), type=_nonnegative, default=field.default
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


def _q_string(q: Optional[Fraction]) -> Optional[str]:
    if q is None:
        return None
    return str(q)


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
        "params": {"k": k, "q": _q_string(q), "J": J},
        "terms": [str(t) for t in terms] if terms is not None else None,
        "gf": None,
        "recurrence": None,
    }
    if gf is not None:
        num = gf.numerator
        den = gf.denominator
        document["gf"] = {
            "num": [str(num.coefficient(i)) for i in range(max(num.degree, 0) + 1)],
            "den": [str(den.coefficient(i)) for i in range(max(den.degree, 0) + 1)],
        }
    if recurrence is not None:
        document["recurrence"] = {
            "order": recurrence.order,
            "coeffs": [str(c) for c in recurrence.coefficients],
            "init": [str(t) for t in recurrence.initial_terms],
            "offset": recurrence.offset,
        }
    return json.dumps(document, indent=2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _seq_values(args) -> list:
    family = args.family
    if family in ("a", "b"):
        _require(args.k is not None and args.q is not None, f"family {family} requires --k and --q")
        k_or_J, q = args.k, args.q
        if q.denominator == 1:
            q = int(q)
    else:
        _require(args.J is not None and args.q is not None, "family c requires --J and --q")
        _require(args.q.denominator == 1, "family c requires integer q")
        k_or_J, q = args.J, int(args.q)

    # built per call, so the evaluators are the ones the module holds now
    routes = {
        ("a", "direct"): a_double_sum,
        ("a", "single"): a_single_sum,
        ("a", "series"): a_hypergeom,
        ("b", "direct"): b_direct,
        ("b", "series"): b_hypergeom,
        ("c", "direct"): c_direct,
    }
    if (family, args.via) not in routes:
        vias = [via for f, via in routes if f == family]
        only = "only " if len(vias) == 1 else ""
        raise _UsageError(f"family {family} supports {only}--via {' or '.join(vias)}")
    evaluate = routes[family, args.via]
    return [evaluate(k_or_J, q, n) for n in range(args.n_max)]


def _cmd_seq(args) -> int:
    values = _seq_values(args)
    if args.format == "text":
        print(" ".join(str(v) for v in values))
    elif args.format == "csv":
        print(",".join(str(v) for v in values))
    elif args.format == "bfile":
        for i, v in enumerate(values):
            if Fraction(v).denominator != 1:
                raise _UsageError(
                    f"term {i} is {v}; b-file output needs integer terms"
                )
        print("\n".join(f"{i} {v}" for i, v in enumerate(values)))
    else:
        print(
            _json_document(args.family, getattr(args, "k", None), args.q,
                           args.J, terms=values)
        )
    return EXIT_PASS


def _build_gf(args) -> tuple[RationalGF, str]:
    """Return the requested function and its display variable."""
    family = args.family
    if family == "C":
        _require(args.J is not None and args.q is not None, "family C requires --J and --q")
        _require(args.q.denominator == 1, "family C requires integer q")
        return C_gf_stirling(args.J, int(args.q)), "x"

    _require(args.k is not None and args.q is not None, f"family {family} requires --k and --q")
    k, q = args.k, args.q
    if getattr(args, "reconstruct", False):
        num_degree = args.num_degree if args.num_degree is not None else k
        den_degree = args.den_degree if args.den_degree is not None else k + 1
        count = num_degree + den_degree + 4
        if family == "B":
            series = [b_direct(k, q, j) for j in range(count)]
        else:
            series = [a_single_sum(k, q, m) for m in range(count)]
        return reconstruct_rational(series, num_degree, den_degree), "z"

    hint = " (or --reconstruct)" if args.command == "gf" else ""
    _require(q.denominator == 1, f"family {family} requires integer q{hint}")
    q = int(q)
    return (B_gf(k, q) if family == "B" else A_gf(k, q)), "z"


def _cmd_gf(args) -> int:
    gf, variable = _build_gf(args)
    if args.format == "text":
        print(gf.render(variable))
    else:
        print(_json_document(args.family, args.k, args.q, args.J, gf=gf))
    return EXIT_PASS


def _cmd_recur(args) -> int:
    gf, _ = _build_gf(args)
    rec = recurrence_from_gf(gf)
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


def _cmd_verify(args) -> int:
    bounds = Bounds(**{f.name: getattr(args, f.name) for f in dataclasses.fields(Bounds)})
    report = run_suite(
        args.suite, bounds, offline=args.offline, timing=args.timing
    )
    print(report.to_json())
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def _cmd_oeis(args) -> int:
    oeis_mod.validate_oeis_id(args.id)
    if args.compare:
        mapping = oeis_mod.mapping_for(args.id)
        _require(mapping is not None, f"no known mapping for {args.id}")
        result = compare_pinned(mapping, offline=args.offline)
        print(result.describe())
        return EXIT_PASS if result.matched else EXIT_FAIL
    pairs = oeis_mod.fetch_bfile(args.id, args.max_terms, offline=args.offline)
    for index, value in pairs:
        print(f"{index} {value}")
    return EXIT_PASS


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (seq, gf, recur, verify, oeis)")
        handlers = {
            "seq": _cmd_seq,
            "gf": _cmd_gf,
            "recur": _cmd_recur,
            "verify": _cmd_verify,
            "oeis": _cmd_oeis,
        }
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TransportError, FixtureMissingError, BFileParseError) as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (
        UnsupportedParameterError,
        NoRationalFitError,
        NeedsMoreTermsError,
        ValueError,
    ) as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
