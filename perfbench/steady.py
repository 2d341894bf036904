"""Steadiness mode: repeat each workload and report how much it spreads.

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --runs 2          # every workload, two seeds (the minimum)
    python3 perfbench/steady.py --runs 5 --workloads counting_sweep
    python3 perfbench/steady.py --trace --workloads claim_registry

Each run is a fresh ``run.py`` process with its own seed (seed0, seed0+1,
...), run one after another.  For every end-to-end metric the median and
quartiles (``statistics.quantiles(values, n=4)``) are printed with the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
A metric is flagged OVER when its spread exceeds the bound and WIDE when
it exceeds a third of it.  ``setup_s`` is shown but, like the bound it
carries, is judged on its median rather than its spread.

With ``--trace`` every workload instead runs traced twice with the same
seed, and every count metric (unit count, ratio or bytes, tracing
overhead aside) must repeat exactly.

Exits 1 when a spread is over its bound or a count fails to repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "ratio", "bytes")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steadiness(spec: dict, workloads: list[str], runs: int, seed0: int) -> bool:
    ok = True
    summary = {}
    for w in workloads:
        results = [run_once(w, seed0 + k, spec["run_seconds"], 0) for k in range(runs)]
        failed = sum(r["failed"] for r in results)
        print(f"\n{w}: {runs} runs, seeds {seed0}..{seed0 + runs - 1}, "
              f"{sum(not r['correct'] for r in results)} incorrect, {failed} failed operations")
        print(f"  {'metric':<16} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s":
                flag = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else ""
                ok = ok and spread <= bound
            print(f"  {name:<16} {metric['unit']:<5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.1%} {bound:>6} {flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "values": values}
        ok = ok and failed == 0
    print(json.dumps(summary, sort_keys=True))
    return ok


def repeat_counts(workloads: list[str], seed: int) -> bool:
    ok = True
    for w in workloads:
        first, second = (run_once(w, seed, 1, 1)["metrics"] for _ in range(2))
        exact = {
            k for k, m in first.items()
            if m["unit"] in EXACT_UNITS and k != "trace.overhead_ratio"
        }
        differ = sorted(k for k in exact if first[k]["value"] != second[k]["value"])
        print(f"{w}: {len(exact)} count metrics, "
              + (f"DIFFER: {', '.join(differ)}" if differ else "all repeat exactly"))
        ok = ok and not differ
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="check count metrics repeat")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    if args.trace:
        ok = repeat_counts(workloads, args.seed0)
    else:
        ok = steadiness(spec, workloads, args.runs, args.seed0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
