"""Run every workload several times and report how steady each metric is.

    python3 perfbench/steady.py [--runs 10]

Every workload in BENCHMARK.json runs RUNS times, each run a separate
``run.py`` process with its own seed (1, 2, ..., RUNS) and BENCHMARK.json's
run_seconds, one after another.  For every workload this prints the
operations attempted and failed, and for every metric its median, first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json.  With
``--runs 1`` it is the one command that runs all workloads once and prints
every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    result = json.loads(lines[-1])
    print("  " + ", ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"]) for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, {attempted} operations attempted, {failed} failed "
              f"(per run {', '.join(shares)}), outputs {'correct' if correct else 'INCORRECT'}")
        steady &= correct
        for metric in results[0]["metrics"]:
            unit = results[0]["metrics"][metric]["unit"]
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {metric:52s} {median:14.6g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            note = f"  bound {bounds[metric]:.2f}"
            # set-up time is held only to its median, not to its spread
            if metric != "setup_s" and spread > bounds[metric] / 3:
                note += "  WIDER THAN A THIRD OF THE BOUND"
                steady = False
            print(f"  {metric:52s} median {median:12.6g} {unit:5s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f"  spread {spread:6.2%}{note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
