"""Acceptance suite: one test per criterion, at stated scales and tolerances.

Each test prints a PASS/FAIL line via the terminal-summary hook in
conftest.py.  Scales are pinned here and not negotiable downward; the
slow sweeps (criteria 1, 6, 8) carry their stated wall-clock budgets.
"""

import json
import math
import time

from clirun import run_cli
from oracles import naive_is_ramifier, naive_set

from ramify.arith import prime_table
from ramify.claims import (
    Verdict,
    claim_character_bounds,
    claim_character_properties,
    claim_circle,
    claim_double_sum,
    claim_lower_bound,
    claim_magnification,
    claim_upper_bound,
    replay_counterexample,
    replay_report,
)
from ramify.counting import build_sieve, count_ramifiers
from ramify.ramification import (
    admits_ramifier,
    admits_strong_ramifier,
    character,
    goldbach_partitions,
)

X_GRID = (100, 1000, 10_000)
M_GRID = (3, 5, 10, 50)


def test_criterion_1_sieve_oracle_equivalence():
    """Sieve bit-identical to the naive witness check, m <= 40, x = 2000, < 60 s."""
    x = 2000
    start = time.monotonic()
    for m in range(2, 41):
        sieve = build_sieve(m, x)
        for n in range(2, x + 1):
            assert sieve.flags[n] == naive_is_ramifier(n, m), (m, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_exact_fixtures():
    """Frozen desk fixtures, re-derived in-test by brute force."""
    brute = naive_set(5, 20)
    assert brute == [4, 7, 8, 9, 18, 19]

    summary = count_ramifiers(5, 20)
    assert summary.count == 6
    assert build_sieve(5, 20).ramifiers() == brute
    assert summary.radius == 14 == max(abs(n - 5) for n in brute)

    w = admits_ramifier(3)
    assert w.n == 5
    w.validate()
    assert admits_ramifier(2) is None


def test_criterion_3_forced_zero_suite():
    """character(n, m) = 0 on residue classes 0 and 1, m <= 50, n <= 5000."""
    bad = [
        (m, n)
        for m in range(2, 51)
        for n in range(2, 5001)
        if n % m <= 1 and character(n, m) != 0
    ]
    assert bad == []


def test_criterion_4_quadratic_residue_suite():
    """Two non-ramifier powers for every QR a mod every odd prime p <= 50."""
    primes = prime_table(50)
    bad = []
    for p in primes.primes:
        if p == 2:
            continue
        for a in range(1, p):
            if pow(a, (p - 1) // 2, p) != 1:
                continue
            for exponent in ((p - 1) // 2, p - 1):
                e = a**exponent
                if e >= 2 and character(e, p) != 0:
                    bad.append((p, a, exponent))
    assert bad == []


def test_criterion_5_shift_properties():
    """Factorial shift exhaustive for m <= 8, n <= 2000; the 2m-shift must
    fail at (m=5, n=7) and the recorded counterexample must replay."""
    for m in range(2, 9):
        f = math.factorial(m)
        for n in range(2, 2001):
            assert character(n + f, m) == character(n, m), (m, n)

    report = claim_character_properties(m_max=8, n_max=2000)
    assert report.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
    target = [
        c
        for c in report.counterexamples
        if c["property"] == "i" and c["m"] == 5 and c["n"] == 7
    ]
    assert target, "expected the (m=5, n=7) shift counterexample"
    assert replay_counterexample("C11", target[0])
    assert character(7, 5) == 1 and character(17, 5) == 0
    non_shift = [c for c in report.counterexamples if c["property"] != "i"]
    assert non_shift == []


def test_criterion_6_goldbach_equivalence_to_10000(primes_10k):
    """Strong-ramifier existence iff a prime partition exists, even m <= 1e4,
    zero mismatches, < 5 min."""
    start = time.monotonic()
    mismatches = []
    for m in range(4, 10_001, 2):
        has_partition = bool(goldbach_partitions(m, primes_10k))
        cert = admits_strong_ramifier(m, primes_10k)
        if has_partition != (cert is not None):
            mismatches.append(m)
        elif cert is not None:
            cert.validate()
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 300, f"goldbach sweep took {elapsed:.1f}s"


def test_criterion_7_magnification_sweep():
    """m <= 30, x = 2000: report generation succeeds and is self-certifying."""
    report = claim_magnification(m_max=30, x=2000)
    assert report.params["instances"] > 0
    fails = report.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
    assert fails == bool(report.counterexamples)
    assert replay_report(report)


def test_criterion_8_bound_reports():
    """Main-term reports over the stated grids: INDETERMINATE_ASYMPTOTIC with
    exact counts and signed discrepancies; the C6 conflict 12 > 6 at
    (m=5, x=20) appears in notes."""
    upper = claim_upper_bound(M_GRID, X_GRID)
    lower = claim_lower_bound(M_GRID, (20,) + X_GRID)
    dsum = claim_double_sum(X_GRID)
    circle = claim_circle(50, X_GRID)
    chbounds = claim_character_bounds(M_GRID, X_GRID)

    for report in (upper, lower, dsum, circle, chbounds):
        assert report.verdict == Verdict.INDETERMINATE_ASYMPTOTIC
        assert report.counterexamples == []
        assert len(report.claimed) == len(report.actual) == len(report.discrepancy)
        assert len(report.actual) == len(report.params["cells"]) > 0
        for claimed, actual, disc in zip(report.claimed, report.actual, report.discrepancy):
            assert isinstance(actual, int)
            assert disc == actual - claimed

    assert (
        "main-term conflict at (m=5, x=20): claimed lower bound 12 "
        "exceeds the exact count 6" in lower.notes
    )
    # every (m, x) cell of the stated grids is present
    for report in (upper, lower, chbounds):
        cells = {(c["m"], c["x"]) for c in report.params["cells"]}
        assert {(m, x) for m in M_GRID for x in X_GRID} <= cells
    assert {c["x"] for c in dsum.params["cells"]} == set(X_GRID)


GOLDEN_RUNS = [
    (("check", "7", "5", "--json"), 0),
    (("scan", "--m", "5", "--x", "20", "--format", "json"), 0),
    (("claims", "--ids", "C2", "--m-max", "20", "--x", "500", "--format", "json"), 0),
    (("goldbach", "--m-max", "10", "--json"), 0),
]


def test_criterion_9_cli_golden_runs():
    """Each subcommand example: byte-identical payload across two runs
    (timestamp excluded) and the full exit-code contract."""
    for args, expected_code in GOLDEN_RUNS:
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == expected_code, args
        payloads = []
        for proc in (first, second):
            env = json.loads(proc.stdout)
            del env["generated_at"]
            payloads.append(json.dumps(env, sort_keys=True))
        assert payloads[0] == payloads[1], args

    assert run_cli("check", "17", "5").returncode == 1
    assert run_cli("check", "1", "5").returncode == 2
    assert run_cli("claims", "--ids", "C99").returncode == 2
    assert run_cli("goldbach", "--m-max", "3").returncode == 2
    assert run_cli("scan", "--m", "5", "--x", "99999", "--budget-bits", "64").returncode == 3
