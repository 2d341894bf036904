#!/usr/bin/env python3
"""Run a fixed list of ramify CLI invocations under a parent checkout and
under this one, and compare what they print.

Each invocation runs as `python -m ramify ARGS` in a child process with
that side's `src/` first on PYTHONPATH; each side's bytecode is compiled
once, into a temporary cache, before the first run.  Every invocation
runs once per side, parent first.  The two runs must agree on stdout,
less the envelope's `generated_at` line, on stderr and on the exit code.
A parent run that exits 3 (resource budget exceeded) gave no answer, so
whatever the change prints there is listed as `parent exit 3` and is not
counted as a difference; a change run that exits 3 where the parent
answered is.

One line per group of invocations gives the outcome and, per side, the
largest peak RSS of a child.  Wall time is not shown: one run on a shared
host swings by more than a change moves it, so speed is measured with
perfbench instead.  The golden grid (`tests/golden/check_grid.json`) is
one group; every other invocation is its own.  Exits 1 if any invocation
differs, 0 otherwise.

Usage:
    git clone -q . ../parent && git -C ../parent checkout -q PARENT_COMMIT
    python scripts/compare_cli.py ../parent
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

#: The invocation that printed each golden file, as the tests run them.
GOLDEN_ARGV = {
    "claims_c5_c8_c9_c11_m30_x600.json":
        "claims --ids C5,C8,C9,C11 --m-max 30 --x 600 --format json",
    "claims_m12_x200.csv": "claims --m-max 12 --x 200 --format csv",
    "claims_m12_x200.json": "claims --m-max 12 --x 200 --format json",
    "claims_m12_x200.txt": "claims --m-max 12 --x 200",
    "claims_m3_x40.json": "claims --m-max 3 --x 40 --format json",
    "goldbach_m200.csv": "goldbach --m-max 200 --format csv",
    "goldbach_m200.json": "goldbach --m-max 200 --format json",
    "scan_m37_x600.json": "scan --m 37 --x 600 --format json",
    "scan_m997_x40000.json": "scan --m 997 --x 40000 --format json",
    "scan_m997_x40000.txt": "scan --m 997 --x 40000",
}

#: Point checks at the scale edges: a strong check far above its residues'
#: table, n = m/2 windows of 10^5 and 10^6 witnesses, and strong checks
#: with m at 2^28 and 2^50, the last with two even residues above 2^48.
CHECKS = [
    "check 12345678901 100000000 --strong",
    "check 100000 200000",
    "check 1000000 2000000",
    "check 178957007 268435456 --strong",
    "check 1013309916158361 1125899906842624 --strong",
    "check 1970324836974592 1125899906842624 --strong",
]

OTHERS = [
    "claims --m-max 60 --x 3000 --format json",
    "claims --m-max 300 --x 10000 --format json",
    "claims --ids C10,C11 --m-max 1000 --x 10000 --format json",
    "claims --m-max 300 --x 100 --format csv",  # C10 rows with m > x
    # many one-member progressions for C9, and C11 (i) at its cap
    "claims --ids C9,C11 --m-max 100 --x 5000 --format json",
    "claims --ids C9,C11 --m-max 24 --x 2 --format json",  # n_max below every shift
    "goldbach --m-max 4 --format json",  # the smallest m, where some bands are empty
    "goldbach --m-max 7 --format csv",
    "goldbach --m-max 20000 --format json",
    "goldbach --m-max 30000",  # the text writer at scale
    "goldbach --m-max 100000 --format json",
    "scan --m 37 --x 3000000 --format csv",
]


def groups() -> list[tuple[str, list[list[str]]]]:
    """(label, argvs) in run order: the golden files, the golden grid, the
    claims and Goldbach sweeps, then each check in text, JSON and CSV."""
    unlisted = {p.name for p in GOLDEN.iterdir()} - set(GOLDEN_ARGV) - {"check_grid.json"}
    if unlisted:
        raise SystemExit(f"golden files with no invocation listed: {sorted(unlisted)}")
    out = [(line, [line.split()]) for line in GOLDEN_ARGV.values()]
    grid = [entry["argv"] for entry in json.loads((GOLDEN / "check_grid.json").read_text())]
    out.append((f"check_grid.json ({len(grid)} invocations)", grid))
    out += [(line, [line.split()]) for line in OTHERS]
    for line in CHECKS:
        for fmt in ("", " --format json", " --format csv"):
            out.append((line + fmt, [(line + fmt).split()]))
    return out


def child_env(src: Path, cache: Path) -> dict[str, str]:
    """The environment of a child: src first on PYTHONPATH, and bytecode
    written to cache, so that both sides start from compiled modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run(env: dict[str, str], argv: list[str], out: Path) -> tuple[int, float]:
    """(exit code, peak RSS MB) of `python -m ramify argv`, its stdout and
    stderr written to out.stdout and out.stderr.

    The outputs go to files and are compared from there in small pieces, so
    that this process stays small: a child's peak RSS counts the image it
    was forked from, before exec.
    """
    with open(f"{out}.stdout", "wb") as so, open(f"{out}.stderr", "wb") as se:
        cmd = [sys.executable, "-m", "ramify", *argv]
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def pieces(path: str):
    """The lines of a file, as bytes cut at 64 KiB so that a long line costs
    no memory, less the envelope's generated_at line."""
    with open(path, "rb") as fh:
        for piece in iter(lambda: fh.readline(1 << 16), b""):
            if not piece.startswith(b'  "generated_at": '):
                yield piece


def first_difference(a: str, b: str) -> str | None:
    """Where the files a and b first differ, or None if they do not."""
    offset = 0
    for x, y in itertools.zip_longest(pieces(a), pieces(b)):
        if x != y:
            return f"at byte {offset}: {x!r:.80} != {y!r:.80}"
        offset += len(x)
    return None


def compare(srcs: tuple[Path, Path], tmp: Path) -> int:
    """Print one line per group, and return the number of invocations that
    differ; tmp holds the outputs and the bytecode caches."""
    envs = [child_env(src, tmp / f"pycache-{i}") for i, src in enumerate(srcs)]
    for env in envs:  # compile each side once, before the first run
        subprocess.run([sys.executable, "-m", "ramify", "--version"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    outs = [tmp / "parent", tmp / "change"]
    print(f"{'outcome':<14} {'parent':>8} {'change':>8}  invocation")
    differ = 0
    for label, argvs in groups():
        rss, notes, outcome = [0.0, 0.0], [], "same"
        for argv in argvs:
            codes = []
            for i, (env, out) in enumerate(zip(envs, outs)):
                code, peak = run(env, argv, out)
                codes.append(code)
                rss[i] = max(rss[i], peak)
            what = [f"exit {codes[0]} -> {codes[1]}"] if codes[0] != codes[1] else []
            for stream in ("stdout", "stderr"):
                diff = first_difference(f"{outs[0]}.{stream}", f"{outs[1]}.{stream}")
                what += [f"{stream} {diff}"] if diff else []
            if not what:
                continue
            if codes[0] == 3:
                outcome = "parent exit 3" if outcome == "same" else outcome
            else:
                differ += 1
                outcome = "DIFFERS"
            notes.append(f"{' '.join(argv)}: " + "; ".join(what))
        print(f"{outcome:<14} {rss[0]:5.0f} MB {rss[1]:5.0f} MB  {label}", flush=True)
        for note in notes:
            print(f"{'':<14} {note}", flush=True)
    return differ


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    args = ap.parse_args()
    srcs = (args.parent.resolve() / "src", REPO / "src")
    if not (srcs[0] / "ramify").is_dir():
        raise SystemExit(f"{srcs[0]} holds no ramify package")
    with tempfile.TemporaryDirectory(prefix="compare_cli-") as tmp:
        differ = compare(srcs, Path(tmp))
    print(f"{differ} invocation(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
