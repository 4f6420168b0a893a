"""Run one binsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory.  One process is one closed-loop client.  It times the
set-up of fresh interpreters, then calls ``binsum.cli.main`` in process for
each operation of the workload's list, in whole passes, until S seconds have
gone, and checks every output (see workloads.py and oracle.py).  With
``--trace 1`` the layers are traced (tracing.py) and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


# ------------------------------------------------------------------ set-up

PROBE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from binsum import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(code, flush=True)
"""


def setup_seconds(argv: tuple) -> tuple:
    """Time from spawning a fresh interpreter to its first cli.main returning:
    (at reference speed, wall)."""
    before = refclock.reference_seconds()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC), *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        wall = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if code != 0 or line.strip() != "0":
        raise RuntimeError(f"set-up probe {' '.join(argv)} ended with {code}, printed {line!r}")
    speed = (before + refclock.reference_seconds()) / 2
    return wall * refclock.NOMINAL_S / speed, wall


# ------------------------------------------------------------------ passes


def call(cli, argv: tuple):
    """One operation: (exit code, or None when it raised; stdout; start; end)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue(), start, time.perf_counter()


def check(ops: list, results: list) -> list:
    """Oracle complaints about the outputs of one pass."""
    complaints = []
    for op, (code, out, _, _) in zip(ops, results):
        if code != 0:
            continue
        try:
            complaint = op.check(out)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            complaint = f"unreadable output ({type(exc).__name__}: {exc})"
        if complaint is not None:
            complaints.append(f"binsum {' '.join(op.argv)}: {complaint}")
    return complaints


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    ops = workloads.build(name, seed)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cache-") as cache:
        # an empty cache: verify --offline reads only the bundled fixtures
        os.environ["BINSUM_CACHE_DIR"] = cache
        setup_seconds(workloads.PROBES[name])  # fills the bytecode cache
        setups = [setup_seconds(workloads.PROBES[name]) for _ in range(SETUP_SAMPLES)]

        from binsum import cli

        tracer = tracing.Tracer() if traced else None
        passes, walls, results, layer_passes, complaints = [], [], [], [], []
        first = None
        with contextlib.ExitStack() as stack:
            if tracer:
                stack.enter_context(tracing.install(tracer))
            clock = stack.enter_context(refclock.ReferenceClock())
            deadline = time.perf_counter() + seconds
            while not passes or time.perf_counter() < deadline:
                if tracer:
                    tracer.reset()
                start = time.perf_counter()
                pass_results = [call(cli, op.argv) for op in ops]
                end = time.perf_counter()
                passes.append(clock.scaled(start, end))
                walls.append(end - start)
                if tracer:
                    layer_passes.append(tracing.layer_values(tracer.stats, passes[-1], passes[-1] / walls[-1]))
                results += [(op, code, a, b) for op, (code, _, a, b) in zip(ops, pass_results)]
                if first is None:
                    first = [out for _, out, _, _ in pass_results]
                    complaints += check(ops, pass_results)
                else:
                    complaints += [
                        f"binsum {' '.join(op.argv)}: output differs from the first pass"
                        for op, (code, out, _, _), kept in zip(ops, pass_results, first)
                        if code == 0 and out != kept
                    ]
        if any(Path(cache).iterdir()):
            complaints.append("an offline run wrote to the cache directory")

    attempted = len(results)
    failed = 0
    for op, code, _, _ in results:
        if code != 0:
            failed += 1
            print(f"failed ({code}): binsum {' '.join(op.argv)}", file=sys.stderr)
    for complaint in complaints:
        print(f"incorrect: {complaint}", file=sys.stderr)
    print(f"{name} seed {seed}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed, python {platform.python_version()}, {os.cpu_count()} cores")
    print(f"wall clock: setup_s {statistics.median(w for _, w in setups):.4f}, "
          f"pass_s {statistics.median(walls):.4f}, "
          f"op_p50_ms {1000 * statistics.median(b - a for _, _, a, b in results):.3f}; "
          f"reference median {1000 * statistics.median(clock.durations):.3f} ms "
          f"over {len(clock.durations)} samples")
    if tracer:
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics = {
            metric: {"value": statistics.median(values[metric] for values in layer_passes),
                     "unit": tracing.layer_unit(metric)}
            for metric in layer_passes[0]
        }
    else:
        latencies = [clock.scaled(a, b) for _, _, a, b in results]
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "pass_s": statistics.median(passes),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
                   for metric, value in values.items()}
        # a tail needs ten samples beyond it; printed, not gated
        if len(latencies) >= 100:
            p90 = 1000 * statistics.quantiles(latencies, n=10)[-1]
            print(f"op_p90_ms {p90:.3f} ms over {len(latencies)} operations")
    return {"correct": not complaints, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "binsum" / "__init__.py").is_file():
        print(f"run.py: no binsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
