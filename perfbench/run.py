"""Benchmark entry point: one seeded workload per fresh process.

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 20 --trace 0

Run from the root of a ramify checkout; the package is imported from its
``src`` directory and nowhere else.  With ``--trace 0`` the workload is
timed for ``--seconds`` and every end-to-end metric is reported; with
``--trace 1`` one fixed unit of the workload runs untraced and then under
the span recorder, and every per-layer metric is reported, with the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("arith", "ramification", "counting", "claims", "cli")
SETUP_REPEATS = 9
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}


def load_ramify() -> dict[str, object]:
    """Import ramify from the checkout's src directory, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "ramify", "__init__.py")):
        print(f"error: no ramify sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"ramify.{name}") for name in MODULES}
    origin = os.path.realpath(mods["arith"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: ramify imported from {origin}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mods


def time_setup(code: str) -> tuple[float, float]:
    """Import plus one-time tables in fresh interpreters, interpreter
    start-up excluded: the median over SETUP_REPEATS of the time scaled to
    the reference host speed, and the raw median."""
    probe = (
        "import sys, time\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "from pace import probe, scaled\n"
        "p0 = probe()\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"{code}"
        "t = time.perf_counter() - t0\n"
        "print(t, scaled(t, p0, probe()))\n"
    )
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        t, s = map(float, done.stdout.split())
        raw.append(t)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(raw)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(workload: str, seed: int) -> dict[str, object]:
    """Everything a result depends on besides the code: where it ran, on
    which sources."""
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(os.path.join(base, index, "size"))
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ramify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "ramify_commit": commit,
        "ramify_sources_sha256": digest.hexdigest()[:16],
    }


def make_workload(name: str, ramify: dict[str, object], seed: int, out_dir: str):
    if name == "point_queries":
        return workloads.PointQueries(ramify, seed)
    if name == "counting_sweep":
        return workloads.CountingSweep(ramify, seed)
    return workloads.ClaimRegistry(ramify, seed, out_dir)


def run_untraced(workload, seconds: float) -> tuple[dict, int, int]:
    setup_s, raw_setup_s = time_setup(workload.setup_code)
    workload.measure(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed, raw, samples = workload.metrics()
    attempted, failed = workload.check()
    print(f"samples: {samples}")
    raw["setup_s"] = raw_setup_s
    print("raw (unscaled): " + ", ".join(f"{k} {v:.6g}" for k, v in sorted(raw.items())))
    print(f"host speed factor: {timed['wall_s'] / raw['wall_s']:.4f} (scaled / raw wall_s)")
    timed.update(setup_s=setup_s, peak_rss_mb=peak_mb)
    metrics = {name: {"value": timed[name], "unit": unit} for name, unit in UNITS.items()}
    return metrics, attempted, failed


def run_traced(workload, ramify, env) -> tuple[dict, int, int]:
    t0 = time.perf_counter()
    workload.trace_unit()
    untraced_s = time.perf_counter() - t0
    rec = tracer.Tracer()
    rec.install(ramify, [(workloads, "serve", "bench.request")])
    try:
        t0 = time.perf_counter()
        unit = workload.trace_unit()
        traced_s = time.perf_counter() - t0
    finally:
        rec.uninstall()
    attempted, failed = workload.check_unit(unit)
    metrics = {
        name: {"value": value, "unit": unit_name}
        for name, (value, unit_name) in rec.layer_metrics().items()
    }
    overhead = traced_s / untraced_s - 1
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    print(f"tracing overhead: {untraced_s:.3f} s untraced, {traced_s:.3f} s traced ({overhead:+.1%})")
    path = os.path.join(HERE, "out", f"trace-{workload.name}.jsonl")
    rec.write(path, {"env": env, "untraced_s": untraced_s, "traced_s": traced_s})
    print(f"spans: {len(rec.spans)} stored in {os.path.relpath(path, ROOT)}")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("point_queries", "counting_sweep", "claim_registry"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ramify = load_ramify()
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        workload = make_workload(args.workload, ramify, args.seed, out_dir)
        if args.trace:
            metrics, attempted, failed = run_traced(workload, ramify, env)
        else:
            metrics, attempted, failed = run_untraced(workload, args.seconds)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
