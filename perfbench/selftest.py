"""Tests of the benchmark itself: every check rejects a corrupted output.

    python3 perfbench/selftest.py

Correct outputs come from binsum's CLI; each test then corrupts one thing
(a term, a denominator, a recurrence coefficient, a report case) and asserts
that the oracle check names the fault.  The file is not named test_*.py so
that the project's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from binsum import cli  # noqa: E402


def output(op: workloads.Op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    assert code == 0, op.argv
    return out.getvalue()


def edit_json(text: str, edit) -> str:
    document = json.loads(text)
    edit(document)
    return json.dumps(document)


class TermChecks(unittest.TestCase):
    def test_every_route_passes(self):
        for family, via, q in (("a", "direct", 2), ("a", "single", 3), ("a", "series", 1),
                               ("b", "direct", 4), ("b", "series", 2), ("c", "direct", 3)):
            op = workloads._seq_op(family, 3, q, 30, via, "bfile")
            self.assertIsNone(op.check(output(op)), op.argv)

    def test_one_wrong_term_is_rejected_anywhere(self):
        op = workloads._seq_op("a", 2, 3, 40, "single", "bfile")
        lines = output(op).splitlines()
        for index in (0, 2, 3, 39):  # inside the oracle head and past it
            corrupt = list(lines)
            i, value = corrupt[index].split()
            corrupt[index] = f"{i} {int(value) + 1}"
            self.assertIsNotNone(op.check("\n".join(corrupt) + "\n"), index)

    def test_missing_or_misnumbered_terms_are_rejected(self):
        op = workloads._seq_op("b", 1, 2, 20, "direct", "bfile")
        lines = output(op).splitlines()
        self.assertIsNotNone(op.check("\n".join(lines[:-1]) + "\n"))
        with self.assertRaises(ValueError):
            op.check("\n".join(lines[1:]) + "\n")

    def test_rational_terms(self):
        op = workloads._seq_op("b", 2, Fraction(2, 3), 20, "direct", "json")
        text = output(op)
        self.assertIsNone(op.check(text))
        bad = edit_json(text, lambda d: d["terms"].__setitem__(15, str(Fraction(d["terms"][15]) + Fraction(1, 7))))
        self.assertIsNotNone(op.check(bad))

    def test_annihilators_hold_on_the_defining_sums(self):
        for family in "abc":
            for param in range(5):
                for q in (1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 2)):
                    if family == "c" and not isinstance(q, int):
                        continue
                    values = oracle.terms(family, param, q, 25)
                    self.assertIsNone(oracle.check_terms(family, param, q, values))


class FunctionChecks(unittest.TestCase):
    def test_constructions_pass(self):
        for family, q in (("A", 3), ("B", 2), ("C", 4)):
            for command in ("gf", "recur"):
                op = workloads._gf_op(command, family, 5, q)
                self.assertIsNone(op.check(output(op)), op.argv)

    def test_wrong_denominator_is_rejected(self):
        op = workloads._gf_op("gf", "A", 2, 3)
        text = output(op)  # (1 + 8z - 12z^2)/(1 - 4z)^3
        # (1 - 4z)^2 still divides the bound, so the series must catch it
        lower = edit_json(text, lambda d: d["gf"].__setitem__("den", ["1", "-8", "16"]))
        self.assertIn("series", op.check(lower))
        # (1 - 3z)^3 breaks the divisibility
        other = edit_json(text, lambda d: d["gf"].__setitem__("den", ["1", "-9", "27", "-27"]))
        self.assertIn("divide", op.check(other))

    def test_wrong_numerator_is_rejected(self):
        op = workloads._gf_op("gf", "C", 4, 2)
        bad = edit_json(output(op), lambda d: d["gf"]["num"].__setitem__(0, str(int(d["gf"]["num"][0]) + 1)))
        self.assertIsNotNone(op.check(bad))

    def test_wrong_recurrence_coefficient_is_rejected(self):
        op = workloads._gf_op("recur", "B", 3, 2)
        text = output(op)

        def bump(d):
            d["recurrence"]["coeffs"][-1] = str(Fraction(d["recurrence"]["coeffs"][-1]) + 1)

        self.assertIsNotNone(op.check(edit_json(text, bump)))
        seed = edit_json(text, lambda d: d["recurrence"]["init"].__setitem__(0, "2"))
        self.assertIsNotNone(op.check(seed))

    def test_reconstructions_are_checked_past_their_window(self):
        for family, q in (("A", 2), ("B", Fraction(3, 2)), ("A", Fraction(5, 2))):
            op = workloads._gf_op("gf", family, 4, q, reconstruct=True)
            text = output(op)
            self.assertIsNone(op.check(text), op.argv)
            bad = edit_json(text, lambda d: d["gf"]["num"].__setitem__(-1, str(int(d["gf"]["num"][-1]) * 2)))
            self.assertIsNotNone(op.check(bad))


class VerifyReportCheck(unittest.TestCase):
    def report(self) -> dict:
        cases = [
            {"case_id": f"{suite}/case-{i:03d}", "inputs": {}, "expected": "x",
             "actual": "x", "status": "pass", "provenance": "identity"}
            for suite, count in sorted(workloads.SUITE_CASES.items()) for i in range(count)
        ]
        total = sum(workloads.SUITE_CASES.values())
        return {"suite": "all", "status": "pass", "wall_time": None,
                "counts": {"pass": total, "fail": 0, "experimental": 0}, "cases": cases}

    def test_good_report_passes(self):
        self.assertIsNone(workloads.check_verify(json.dumps(self.report())))

    def test_faults_are_rejected(self):
        def failing(r):
            r["cases"][5]["status"] = "fail"

        def short(r):
            del r["cases"][-1]

        def timed(r):
            r["wall_time"] = 1.0

        def lying(r):
            r["cases"][3]["actual"] = "y"

        for corrupt in (failing, short, timed, lying):
            report = self.report()
            corrupt(report)
            self.assertIsNotNone(workloads.check_verify(json.dumps(report)), corrupt.__name__)


class Workloads(unittest.TestCase):
    def test_seeded(self):
        for name in workloads.WORKLOADS:
            first = [op.argv for op in workloads.build(name, 7)]
            self.assertEqual(first, [op.argv for op in workloads.build(name, 7)])
            if name != "verify-offline":
                self.assertNotEqual(first, [op.argv for op in workloads.build(name, 8)])


class Tracing(unittest.TestCase):
    def test_counts_and_restores(self):
        from binsum import combinatorics, sequences
        original = sequences.binomial
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            self.assertIsNot(sequences.binomial, original)
            output(workloads._seq_op("b", 1, Fraction(1, 2), 6, "direct", "json"))
        self.assertIs(sequences.binomial, original)
        self.assertIs(combinatorics.binomial, original)
        stats = tracer.stats
        self.assertEqual(stats["cli.main"].calls, 1)
        self.assertEqual(stats["sequences.b_direct"].calls, 6)
        self.assertGreater(stats["combinatorics.binomial"].extra["rational_calls"], 0)
        self.assertGreaterEqual(stats["cli.main"].total_s, stats["sequences.b_direct"].total_s)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names.count("sequences.b_direct"), 6)
        self.assertEqual(tracer.spans[names.index("sequences.b_direct")][3], names.index("cli.main"))


def busy() -> float:
    """Seconds taken by a fixed cost that is neither binsum nor the
    reference: about 50 ms of integer arithmetic, which allocates no object
    the collector tracks."""
    start = time.perf_counter()
    total = 0
    for i in range(600000):
        total += i * i
    return time.perf_counter() - start


class ReferenceClock(unittest.TestCase):
    def test_scaling_uses_the_median_and_leaves_samples_out(self):
        clock = refclock.ReferenceClock()
        n = refclock.NOMINAL_S
        # half the reference speed with one slow outlier sample, then full speed
        clock.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        clock.durations = [2 * n, 2 * n, 10 * n, 2 * n, n, n]
        # the outlier does not move the median of the samples around a stretch
        self.assertAlmostEqual(clock.scaled(0.1, 0.6), 0.25)
        # a stretch around a sample: its 10 ms are left out
        self.assertAlmostEqual(clock.scaled(1.5, 2.5), 0.25 + (0.5 - 10 * n) / 2)
        # after the speed-up
        self.assertAlmostEqual(clock.scaled(4.5, 5.5), 1 - n)

    def test_samples_run_no_collection(self):
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        clock = refclock.ReferenceClock()
        threshold = gc.get_threshold()
        gc.set_threshold(1)  # any tracked allocation would start a collection
        gc.callbacks.append(record)
        try:
            clock.sample()
        finally:
            gc.callbacks.remove(record)
            gc.set_threshold(*threshold)
        self.assertEqual(collections, [])
        self.assertTrue(gc.isenabled())

    def test_added_cost_shows_in_full(self):
        """A fixed cost added to an operation adds its own scaled time."""
        op = workloads._seq_op("b", 3, 2, 40, "direct", "bfile")
        shares = []
        with refclock.ReferenceClock() as clock:
            for _ in range(20):
                start = time.perf_counter()
                output(op)
                alone = clock.scaled(start, time.perf_counter())
                start = time.perf_counter()
                busy()
                cost = clock.scaled(start, time.perf_counter())
                start = time.perf_counter()
                output(op)
                busy()
                both = clock.scaled(start, time.perf_counter())
                shares.append((both - alone) / cost)
        self.assertAlmostEqual(statistics.median(shares), 1, delta=0.1)

    def test_live_heap_leaves_the_reference_alone(self):
        """A program that holds many live objects does not slow the samples,
        so it cannot make its own time read shorter.  Each block's samples
        are taken against the fixed cost timed in the same block, which
        cancels the host's drift in speed."""
        op = workloads._seq_op("b", 3, 2, 40, "direct", "bfile")
        ratios: dict = {True: [], False: []}
        for _ in range(6):
            for held in (True, False):
                heap = [[i] for i in range(300000)] if held else []
                costs = []
                with refclock.ReferenceClock() as clock:
                    for _ in range(3):
                        output(op)
                        costs.append(busy())
                ratios[held].append(statistics.median(clock.durations) / statistics.median(costs))
                del heap
        ratio = statistics.median(ratios[True]) / statistics.median(ratios[False])
        self.assertAlmostEqual(ratio, 1, delta=0.15)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        stats = {target[2]: tracing.Stat() for target in tracing.TARGETS}
        emitted = {name: tracing.layer_unit(name) for name in tracing.layer_values(stats, 1.0, 1.0)}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, emitted)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
