"""The three seeded workloads: inputs, the timed work, and output checks.

Each workload draws every input from ``random.Random(seed)`` before the
clock starts; the program only ever sees the generated integers.  Output
checks run after the timed region, against routes that do not share
code with the route being timed.  Every timed interval (a batch of
requests, one call of a bulk pass) is bracketed by host-speed probes and
reported at the reference speed; see pace.py.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import time
from array import array
from functools import partial
from typing import Any, Callable

from pace import probe, scaled

# --- point_queries -------------------------------------------------------------

N_MAX = 10**12
M_MAX = 10**4
HOT_PAIRS = 4096
HOT_SHARE = 0.5
ZIPF_S = 0.4
CHUNK = 4096  # requests generated, then served, per batch
SAMPLE_STRIDE = 97
SAMPLE_MAX = 4000
TRACE_CHUNKS = 4


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))))


def serve(R: Any, primes: Any, n: int, m: int) -> tuple[int, Any, Any]:
    """One request: character, then index_of when n ramifies, then
    strong_witnesses when m is even.  Callers look it up as a module
    global, so the traced run can wrap it as the request's root span."""
    c = R.character(n, m)
    rec = R.index_of(n, m) if c else None
    strong = R.strong_witnesses(n, m, primes) if not m & 1 else None
    return c, rec, strong


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


class PointQueries:
    """Closed loop, one client: a stream of (n, m) requests, about half of
    them redrawn from a Zipf-skewed hot set of HOT_PAIRS pairs."""

    name = "point_queries"
    setup_code = (
        "import ramify.ramification\n"
        "from ramify.arith import prime_table\n"
        f"prime_table({M_MAX})\n"
    )

    def __init__(self, ramify: dict[str, Any], seed: int) -> None:
        self.R = ramify["ramification"]
        self.arith = ramify["arith"]
        self.seed = seed
        self.primes = self.arith.prime_table(M_MAX)

    def stream(self):
        """Endless chunks of requests; the same seed gives the same stream."""
        rng = random.Random(self.seed)
        hot = [(_log_uniform(rng, 2, N_MAX), _log_uniform(rng, 2, M_MAX)) for _ in range(HOT_PAIRS)]
        cum, total = [], 0.0
        for k in range(1, HOT_PAIRS + 1):
            total += k**-ZIPF_S
            cum.append(total)
        while True:
            ns, ms = [], []
            for _ in range(CHUNK):
                if rng.random() < HOT_SHARE:
                    n, m = hot[bisect.bisect_left(cum, rng.random() * total)]
                else:
                    n, m = _log_uniform(rng, 2, N_MAX), _log_uniform(rng, 2, M_MAX)
                ns.append(n)
                ms.append(m)
            yield ns, ms

    def measure(self, seconds: float) -> None:
        lat = array("q", bytes(8 * CHUNK))
        samples: list[tuple[int, int, Any]] = []
        raw_s: list[float] = []
        batch_s: list[float] = []
        p50: list[float] = []
        p99: list[float] = []
        raised = done = 0
        R, primes = self.R, self.primes
        clock = time.perf_counter_ns
        start = time.perf_counter()
        before = probe()
        for ns, ms in self.stream():
            c0 = clock()
            for i in range(CHUNK):
                n, m = ns[i], ms[i]
                t0 = clock()
                try:
                    out = serve(R, primes, n, m)
                except Exception:
                    out = None
                    raised += 1
                lat[i] = clock() - t0
                if (done + i) % SAMPLE_STRIDE == 0 and len(samples) < SAMPLE_MAX and out:
                    samples.append((n, m, out))
            raw_s.append((clock() - c0) / 1e9)
            after = probe()
            k = scaled(1.0, before, after)
            before = after
            batch_s.append(raw_s[-1] * k)
            done += CHUNK
            ordered = sorted(lat)
            p50.append(percentile(ordered, 0.50) * k)
            p99.append(percentile(ordered, 0.99) * k)
            if time.perf_counter() - start >= seconds:
                break
        self.raw_s, self.batch_s, self.p50, self.p99 = raw_s, batch_s, p50, p99
        self.samples, self.raised, self.done = samples, raised, done

    def metrics(self) -> tuple[dict[str, float], dict[str, float], str]:
        """Scaled metrics, the raw batch figures, and the sample counts."""
        return (
            {
                "queries_per_s": self.done / sum(self.batch_s),
                "query_p50_us": median(self.p50) / 1e3,
                "query_p99_us": median(self.p99) / 1e3,
                "wall_s": median(self.batch_s),
            },
            {"queries_per_s": self.done / sum(self.raw_s), "wall_s": median(self.raw_s)},
            f"{self.done} requests in {len(self.batch_s)} batches of {CHUNK}",
        )

    def check(self) -> tuple[int, int]:
        return self.done, self.raised + _failed_samples(self.samples)

    def trace_unit(self) -> list[tuple[int, int, Any]]:
        """Fixed work for the traced run: the first TRACE_CHUNKS batches."""
        primes = self.arith.prime_table(M_MAX)
        chunks = self.stream()
        samples = []
        for _ in range(TRACE_CHUNKS):
            ns, ms = next(chunks)
            for i in range(CHUNK):
                out = serve(self.R, primes, ns[i], ms[i])
                if i % SAMPLE_STRIDE == 0:
                    samples.append((ns[i], ms[i], out))
        return samples

    def check_unit(self, samples: list[tuple[int, int, Any]]) -> tuple[int, int]:
        return TRACE_CHUNKS * CHUNK, _failed_samples(samples)


def _failed_samples(samples: list[tuple[int, int, Any]]) -> int:
    """Sampled answers that disagree with the naive definition
    any(n % r == m - n % m for r in range(2, m)) or its least witness."""
    failed = 0
    for n, m, (c, rec, strong) in samples:
        a2 = m - n % m
        naive = [r for r in range(2, m) if n % r == a2]
        ok = c == (1 if naive else 0)
        if naive:
            ok = ok and rec is not None and rec.index == naive[0] == min(rec.all_indices)
            ok = ok and list(rec.all_indices) == naive
        else:
            ok = ok and rec is None
        if strong is not None:
            prime_split = naive and _is_prime(n % m) and _is_prime(a2)
            ok = ok and [w.r for w in strong] == (naive if prime_split else [])
            ok = ok and all(w.p1 == n % m and w.p2 == a2 for w in strong)
        failed += not ok
    return failed


# --- bulk workloads ------------------------------------------------------------

MIN_PASSES = 3
MAX_PASSES = 30


class Bulk:
    """A fixed problem solved once per pass; every pass draws fresh cells."""

    name = ""
    setup_code = ""
    ops_per_pass = 1

    def __init__(self, ramify: dict[str, Any], seed: int) -> None:
        self.ramify = ramify
        self.rng = random.Random(seed)
        self.passes: list[tuple[Any, Any]] = []

    def inputs(self, k: int) -> Any:
        """Inputs of pass k, fixed by the seed."""
        raise NotImplementedError

    def steps(self, inputs: Any) -> list[Callable[[], Any]]:
        """The calls that make up pass ``inputs``, in order."""
        raise NotImplementedError

    def reduce(self, inputs: Any, outs: list[Any]) -> Any:
        """What the output checks need from the step outputs."""
        return outs

    def check_pass(self, inputs: Any, outputs: Any) -> int:
        """Number of failed operations in one pass."""
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raw_s: list[float] = []
        pass_s: list[float] = []
        start = time.perf_counter()
        before = probe()
        while len(pass_s) < MAX_PASSES:
            inputs = self.inputs(len(pass_s))
            raw = total = 0.0
            outs: list[Any] = []
            try:
                for step in self.steps(inputs):
                    t0 = time.perf_counter()
                    outs.append(step())
                    dt = time.perf_counter() - t0
                    after = probe()
                    raw += dt
                    total += scaled(dt, before, after)
                    before = after
                result = self.reduce(inputs, outs)
            except Exception as exc:
                result = exc
            del outs
            raw_s.append(raw)
            pass_s.append(total)
            self.passes.append((inputs, result))
            # Stop at the pass boundary nearest to the time limit.
            left = seconds - (time.perf_counter() - start)
            if len(pass_s) >= MIN_PASSES and left < (time.perf_counter() - start) / len(pass_s) / 2:
                break
        self.raw_s, self.pass_s = raw_s, pass_s

    def metrics(self) -> tuple[dict[str, float], dict[str, float], str]:
        pass_s = self.pass_s
        return (
            {
                "queries_per_s": len(pass_s) / sum(pass_s),
                "query_p50_us": median(pass_s) * 1e6,
                "query_p99_us": percentile(sorted(pass_s), 0.99) * 1e6,
                "wall_s": median(pass_s),
            },
            {"queries_per_s": len(pass_s) / sum(self.raw_s), "wall_s": median(self.raw_s)},
            f"{len(pass_s)} passes",
        )

    def check(self) -> tuple[int, int]:
        failed = 0
        for inputs, outputs in self.passes:
            if isinstance(outputs, Exception):
                failed += self.ops_per_pass
            else:
                failed += self.check_pass(inputs, outputs)
        return self.ops_per_pass * len(self.passes), failed

    def trace_unit(self) -> tuple[Any, Any]:
        """Fixed work for the traced run: pass 0, without probes."""
        inputs = self.inputs(0)
        return inputs, self.reduce(inputs, [step() for step in self.steps(inputs)])

    def check_unit(self, unit: tuple[Any, Any]) -> tuple[int, int]:
        return self.ops_per_pass, self.check_pass(*unit)


COUNT_X = 10**5
BANDS = ((3, 40), (41, 110), (111, 300), (400, 520), (900, 1000))
RC_X, RC_JITTER = 5000, 60
MM_X, MM_JITTER = 2500, 30


class CountingSweep(Bulk):
    """count_ramifiers(m, 10^5) for one modulus per log band, then the
    closed-form ramifier_counts(x, 2, x) at x near 5000 and
    multi_modulus_ramifiers at x near 2500.  No cell repeats in a run."""

    name = "counting_sweep"
    setup_code = "import ramify.counting\n"
    ops_per_pass = len(BANDS) + 2

    def __init__(self, ramify: dict[str, Any], seed: int) -> None:
        super().__init__(ramify, seed)
        rng = self.rng
        self._moduli = [rng.sample(range(lo, hi + 1), MAX_PASSES) for lo, hi in BANDS]
        self._rc_x = rng.sample(range(RC_X - RC_JITTER, RC_X + RC_JITTER + 1), MAX_PASSES)
        self._mm_x = rng.sample(range(MM_X - MM_JITTER, MM_X + MM_JITTER + 1), MAX_PASSES)
        self._check_seeds = [rng.random() for _ in range(MAX_PASSES)]

    def inputs(self, k: int) -> dict[str, Any]:
        return {
            "moduli": [band[k] for band in self._moduli],
            "rc_x": self._rc_x[k],
            "mm_x": self._mm_x[k],
            "check_seed": self._check_seeds[k],
        }

    def steps(self, inputs: dict[str, Any]) -> list[Callable[[], Any]]:
        C = self.ramify["counting"]
        x = inputs["rc_x"]
        return [
            *(partial(C.count_ramifiers, m, COUNT_X) for m in inputs["moduli"]),
            partial(C.ramifier_counts, x, 2, x),
            partial(C.multi_modulus_ramifiers, inputs["mm_x"]),
        ]

    def reduce(self, inputs, outs):
        *cells, counts, multi = outs
        rng = random.Random(inputs["check_seed"])
        x = inputs["mm_x"]
        probe_ns = sorted(rng.sample(range(2, x + 1), 12))
        found = dict(multi)
        return (
            [(s.m, s.count) for s in cells],
            counts,
            {n: found.get(n) for n in probe_ns},
            [n for n, _ in multi] == sorted(found),
        )

    def check_pass(self, inputs, outputs) -> int:
        C = self.ramify["counting"]
        R = self.ramify["ramification"]
        cells, counts, probed, ascending = outputs
        rng = random.Random(inputs["check_seed"])
        failed = 0
        # Sieve route (timed) against the closed-form route, every cell.
        for m, count in cells:
            failed += C.ramifier_counts(COUNT_X, m, m)[0] != count
        # Closed-form double count (timed) against the sieve route on small
        # moduli and the point predicate on large ones.
        x = inputs["rc_x"]
        bad = len(counts) != x - 1
        for m in rng.sample(range(2, 121), 4):
            bad = bad or counts[m - 2] != C.count_ramifiers(m, x).count
        for m in rng.sample(range(x // 2, x + 1), 2):
            bad = bad or counts[m - 2] != sum(R.character(n, m) for n in range(2, x + 1))
        failed += bad
        # Multi-modulus list (timed) against the point predicate.
        x = inputs["mm_x"]
        bad = not ascending
        for n, ms in probed.items():
            expected = [m for m in range(2, x + 1) if R.character(n, m)]
            bad = bad or ms != (expected if len(expected) >= 2 else None)
        failed += bad
        return failed


CLAIM_M, CLAIM_M_JITTER = 60, 3
CLAIM_X, CLAIM_X_JITTER = 3000, 50
GOLDBACH_M_MAX = 10_000
EXPECTED_VERDICTS = {
    "C1": "FAILS_WITH_COUNTEREXAMPLE",
    "C2": "HOLDS_AT_SCALE",
    "C3": "HOLDS_AT_SCALE",
    "C4": "INDETERMINATE_ASYMPTOTIC",
    "C5": "HOLDS_AT_SCALE",
    "C6": "INDETERMINATE_ASYMPTOTIC",
    "C7": "INDETERMINATE_ASYMPTOTIC",
    "C8": "HOLDS_AT_SCALE",
    "C9": "HOLDS_AT_SCALE",
    "C10": "INDETERMINATE_ASYMPTOTIC",
    "C11": "FAILS_WITH_COUNTEREXAMPLE",
    "C12": "INDETERMINATE_ASYMPTOTIC",
    "C13": "FAILS_WITH_COUNTEREXAMPLE",
}


class ClaimRegistry(Bulk):
    """The researcher's path through cli.main with its defaults: all
    thirteen claims at (M, X) near (60, 3000), then the Goldbach sweep to
    10^4, both as JSON files."""

    name = "claim_registry"
    setup_code = "import ramify.cli\n"
    ops_per_pass = 2

    def __init__(self, ramify: dict[str, Any], seed: int, out_dir: str) -> None:
        super().__init__(ramify, seed)
        grid = [
            (m, x)
            for m in range(CLAIM_M - CLAIM_M_JITTER, CLAIM_M + CLAIM_M_JITTER + 1)
            for x in range(CLAIM_X - CLAIM_X_JITTER, CLAIM_X + CLAIM_X_JITTER + 1)
        ]
        self._cells = self.rng.sample(grid, MAX_PASSES)
        self.out_dir = out_dir

    def inputs(self, k: int) -> dict[str, Any]:
        m, x = self._cells[k]
        return {
            "m_max": m,
            "x": x,
            "claims_out": os.path.join(self.out_dir, f"claims-{k}.json"),
            "goldbach_out": os.path.join(self.out_dir, f"goldbach-{k}.json"),
        }

    def steps(self, inputs: dict[str, Any]) -> list[Callable[[], Any]]:
        main = self.ramify["cli"].main
        return [
            partial(main, ["claims", "--m-max", str(inputs["m_max"]), "--x", str(inputs["x"]),
                           "--format", "json", "--out", inputs["claims_out"]]),
            partial(main, ["goldbach", "--m-max", str(GOLDBACH_M_MAX), "--format", "json",
                           "--out", inputs["goldbach_out"]]),
        ]

    def check_pass(self, inputs, outputs) -> int:
        claims = self.ramify["claims"]
        claims_rc, goldbach_rc = outputs
        with open(inputs["claims_out"]) as fh:
            payload = json.load(fh)["payload"]
        reports = payload["reports"]
        ok = claims_rc == 1
        ok = ok and payload["failing_asserted_claims"] == ["C1", "C11", "C13"]
        ok = ok and {r["claim_id"]: r["verdict"] for r in reports} == EXPECTED_VERDICTS
        by_id = {r["claim_id"]: r for r in reports}
        ok = ok and by_id["C1"]["counterexamples"] == [{"m": 2}]
        # C13 (sieve route) against the closed-form count of moduli below
        # the threshold that admit a ramifier.
        C, x = self.ramify["counting"], inputs["x"]
        below = C.ramifier_counts(x, 2, C.threshold(x) - 1)
        ok = ok and by_id["C13"]["actual"] == [sum(1 for c in below if c)]
        for r in reports:
            report = claims.ClaimReport(
                claim_id=r["claim_id"], params=r["params"], claimed=r["claimed"],
                actual=r["actual"], discrepancy=r["discrepancy"],
                verdict=claims.Verdict(r["verdict"]),
                counterexamples=r["counterexamples"], notes=r["notes"],
            )
            ok = ok and claims.replay_report(report)
        with open(inputs["goldbach_out"]) as fh:
            gold = json.load(fh)["payload"]
        gold_ok = goldbach_rc == 0 and gold["mismatches"] == 0
        gold_ok = gold_ok and gold["checked"] == len(range(4, GOLDBACH_M_MAX + 1, 2))
        return (not ok) + (not gold_ok)


# --- statistics ----------------------------------------------------------------


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
