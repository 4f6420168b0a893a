"""Layer tracing for the benchmark's traced run, installed from outside binsum.

``install`` replaces each traced function in every binsum module that holds
it (so the names ``sequences``, ``genfunc``, ``verify`` and ``cli`` imported
are covered too) and each traced method on its class, and puts the originals
back on exit.  No file of the package is edited.

Every wrapped call keeps a stack frame; on return its duration is added to
the function's total, its duration minus its children's to the function's
self time, and its duration to the parent's child time.  Calls of the
boundary layers (cli, verify, genfunc, sequences, hypergeometric, oeis) are
also kept as spans (name, start, end, parent) and written out at the end.
The hot kernels (combinatorics, polynomials) run millions of times a pass,
so only their counts and times are kept; their time still leaves their
caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from fractions import Fraction

# (module, attribute, span name, keep spans, report).  The report kind names
# the per-layer metrics of the function: "calls" gives <name>.calls and
# <name>.self_s, "self" gives <name>.self_s, "total" gives the inclusive
# <name>.s, and None gives none (the function is traced for its spans, and so
# that its time leaves its caller's self time).
TARGETS = (
    ("combinatorics", "binomial", "combinatorics.binomial", False, "calls"),
    ("combinatorics", "pochhammer", "combinatorics.pochhammer", False, "calls"),
    ("hypergeometric", "hyp_terminating", "hypergeometric.hyp_terminating", True, "calls"),
    ("sequences", "a_double_sum", "sequences.a_double_sum", True, "calls"),
    ("sequences", "a_single_sum", "sequences.a_single_sum", True, "calls"),
    ("sequences", "a_from_b", "sequences.a_from_b", True, "calls"),
    ("sequences", "a_hypergeom", "sequences.a_hypergeom", True, "calls"),
    ("sequences", "b_direct", "sequences.b_direct", True, "calls"),
    ("sequences", "b_hypergeom", "sequences.b_hypergeom", True, "calls"),
    ("sequences", "c_direct", "sequences.c_direct", True, "calls"),
    ("polynomials", "Polynomial.__mul__", "polynomials.Polynomial.mul", False, "calls"),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd", False, "calls"),
    ("polynomials", "RationalGF.__init__", "polynomials.RationalGF.init", False, "calls"),
    ("polynomials", "RationalGF.series", "polynomials.RationalGF.series", False, "self"),
    ("genfunc", "A_gf", "genfunc.A_gf", True, None),
    ("genfunc", "B_gf", "genfunc.B_gf", True, "self"),
    ("genfunc", "binomial_transform_gf", "genfunc.binomial_transform_gf", True, "self"),
    ("genfunc", "C_gf_stirling", "genfunc.C_gf_stirling", True, "self"),
    ("genfunc", "reconstruct_rational", "genfunc.reconstruct_rational", True, "self"),
    ("genfunc", "recurrence_from_gf", "genfunc.recurrence_from_gf", True, "self"),
    ("oeis", "fetch_bfile", "oeis.fetch_bfile", True, "calls"),
    ("oeis", "compare_terms", "oeis.compare_terms", True, "self"),
    ("verify", "_formulas_cases", "verify.run_suite.formulas", True, "total"),
    ("verify", "_tables_cases", "verify.run_suite.tables", True, "total"),
    ("verify", "_identities_cases", "verify.run_suite.identities", True, "total"),
    ("verify", "_appendix_cases", "verify.run_suite.appendix", True, "total"),
    ("verify", "_oeis_cases", "verify.run_suite.oeis", True, "total"),
    ("cli", "main", "cli.main", True, "self"),
)

MODULES = ("cli", "combinatorics", "genfunc", "hypergeometric", "oeis",
           "polynomials", "sequences", "tables", "verify")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra", "children")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra: dict = {}
        self.children: dict = {}  # child name -> calls made from this function


class Tracer:
    def __init__(self) -> None:
        self.stats: dict = {}
        self.spans: list = []  # [name, start, end, parent span index or -1]
        self._stack: list = []  # frames: [start, child seconds, Stat, span index]

    def wrap(self, name: str, fn, keep_span: bool, on_call=None):
        stat = self.stats.setdefault(name, Stat())
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(stat, args)
            parent = stack[-1] if stack else None
            span = parent[3] if parent is not None else -1
            if keep_span:
                spans.append([name, 0.0, 0.0, span])
                span = len(spans) - 1
            frame = [0.0, 0.0, stat, span]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if keep_span:
                    spans[span][1] = start
                    spans[span][2] = end
                if parent is not None:
                    parent[1] += duration
                    siblings = parent[2].children
                    siblings[name] = siblings.get(name, 0) + 1

        return traced

    def reset(self) -> None:
        """Zero every count and time; spans are kept."""
        for stat in self.stats.values():
            stat.__init__()

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def _count_rational_top(stat: Stat, args) -> None:
    top = args[0]
    if isinstance(top, Fraction) and top.denominator != 1:
        stat.extra["rational_calls"] = stat.extra.get("rational_calls", 0) + 1


def _terms_counter(termination_order):
    def count(stat: Stat, args) -> None:
        stat.extra["terms"] = stat.extra.get("terms", 0) + termination_order(args[0]) + 1
    return count


@contextlib.contextmanager
def install(tracer: Tracer):
    """Trace every TARGETS function until the block exits."""
    modules = [importlib.import_module(f"binsum.{name}") for name in MODULES]
    modules.append(importlib.import_module("binsum"))
    hooks = {
        "combinatorics.binomial": _count_rational_top,
        "hypergeometric.hyp_terminating": _terms_counter(
            importlib.import_module("binsum.hypergeometric").termination_order
        ),
    }
    undo = []
    for module_name, attribute, name, keep_span, _ in TARGETS:
        module = importlib.import_module(f"binsum.{module_name}")
        owner_name, _, member = attribute.rpartition(".")
        original = getattr(getattr(module, owner_name), member) if owner_name else getattr(module, member)
        wrapper = tracer.wrap(name, original, keep_span, hooks.get(name))
        owners = [getattr(module, owner_name)] if owner_name else modules
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, key, value))
                    setattr(owner, key, wrapper)
    try:
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def layer_values(stats: dict, pass_seconds: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass, as TARGETS names them.  The
    tracer reads the wall clock; its times are multiplied by scale, the
    pass's reference-speed seconds over its wall seconds."""
    values = {}
    for _, _, name, _, report in TARGETS:
        stat = stats[name]
        if report == "calls":
            values[f"{name}.calls"] = stat.calls
        if report in ("calls", "self"):
            values[f"{name}.self_s"] = stat.self_s * scale
        if report == "total":
            values[f"{name}.s"] = stat.total_s * scale
    binomial = stats["combinatorics.binomial"]
    values["combinatorics.binomial.rational_calls"] = binomial.extra.get("rational_calls", 0)
    hyp = stats["hypergeometric.hyp_terminating"]
    terms = hyp.extra.get("terms", 0)
    values["hypergeometric.hyp_terminating.terms"] = terms
    pochhammers = hyp.children.get("combinatorics.pochhammer", 0)
    values["hypergeometric.hyp_terminating.pochhammer_per_term"] = pochhammers / terms if terms else 0.0
    # against pass_s of an untraced run this gives the tracing overhead
    values["trace.pass_s"] = pass_seconds
    return values


def layer_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"
