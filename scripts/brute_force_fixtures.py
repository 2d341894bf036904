#!/usr/bin/env python3
"""Independent brute-force derivation of every frozen test fixture.

This script deliberately imports nothing from the package.  Each quantity
is recomputed from the raw definitions with naive loops, so the values
frozen into the test suite have a provenance that does not depend on the
library code they are used to check.

Usage:
    python scripts/brute_force_fixtures.py
"""

import json
import math


def is_prime(v: int) -> bool:
    if v < 2:
        return False
    return all(v % d for d in range(2, math.isqrt(v) + 1))


def witnesses(n: int, m: int) -> list[tuple[int, int, int]]:
    """All (a1, r, a2) with a1 = n mod m, a2 = n mod r, a1 + a2 = m, 2 <= r < m."""
    a1 = n % m
    return [(a1, r, n % r) for r in range(2, m) if a1 + n % r == m]


def is_ramifier(n: int, m: int) -> bool:
    return bool(witnesses(n, m))


def minimal_ramifier(m: int, strong: bool = False) -> dict | None:
    # Every modulus m >= 3 has the ramifier 2m - 1, and a prime residue
    # pair reachable below 2m whenever one exists at all, so scanning
    # n <= 2m + 1 is exhaustive for both searches.
    for n in range(2, 2 * m + 2):
        for a1, r, a2 in witnesses(n, m):
            if strong and not (is_prime(a1) and is_prime(a2)):
                continue
            return {"n": n, "a1": a1, "r": r, "a2": a2}
    return None


def ramifier_set(m: int, x: int) -> list[int]:
    return [n for n in range(2, x + 1) if is_ramifier(n, m)]


def goldbach_pairs(m: int) -> list[tuple[int, int]]:
    return [(p, m - p) for p in range(2, m // 2 + 1) if is_prime(p) and is_prime(m - p)]


def multi_modulus(x: int) -> list[tuple[int, list[int]]]:
    out = []
    for n in range(2, x + 1):
        ms = [m for m in range(2, x + 1) if is_ramifier(n, m)]
        if len(ms) >= 2:
            out.append((n, ms))
    return out


def pigeonhole(x: int) -> dict:
    """Claim C8's count of n <= x ramifying in two moduli m <= x, and the
    least such n with its moduli."""
    found = multi_modulus(x)
    return {"count": len(found), "least": found[0] if found else None}


def shift_mismatches(m_max: int, n_max: int) -> int:
    """Claim C11 (i): the pairs (m, n), n in [2, n_max], whose character
    differs from the character at n + 2m."""
    return sum(
        is_ramifier(n, m) != is_ramifier(n + 2 * m, m)
        for m in range(2, m_max + 1)
        for n in range(2, n_max + 1)
    )


def divisors_in_window(k: int, lo: int, hi: int) -> list[int]:
    return [r for r in range(lo, hi + 1) if k % r == 0]


def main() -> None:
    fixtures: dict = {}

    fixtures["witnesses"] = {
        "7 mod 5": witnesses(7, 5),
        "17 mod 5": witnesses(17, 5),
        "10 mod 6": witnesses(10, 6),
        "10 mod 2": witnesses(10, 2),
        "4 mod 5": witnesses(4, 5),
        "19 mod 8": witnesses(19, 8),
        "2 mod 4": witnesses(2, 4),
        "3 mod 4": witnesses(3, 4),
    }

    fixtures["minimal_ramifiers"] = {m: minimal_ramifier(m) for m in range(2, 13)}
    fixtures["minimal_strong_ramifiers"] = {
        m: minimal_ramifier(m, strong=True) for m in (2, 3, 4, 5, 6, 8, 10, 11, 12)
    }

    set_5_20 = ramifier_set(5, 20)
    fixtures["ramifiers_5_20"] = set_5_20
    fixtures["radius_5_20"] = max(abs(n - 5) for n in set_5_20)
    fixtures["ramifiers_3_10"] = ramifier_set(3, 10)
    fixtures["ramifiers_2_100"] = ramifier_set(2, 100)
    fixtures["ramifiers_4_20"] = ramifier_set(4, 20)

    # Per-modulus counts at x = 240, the packed band sweep's frozen row.
    fixtures["ramifier_counts_x240"] = [len(ramifier_set(m, 240)) for m in range(2, 241)]

    fixtures["count_sums"] = {
        "x=20 m=2..5": sum(len(ramifier_set(m, 20)) for m in range(2, 6)),
        "x=100 m=2..100": sum(len(ramifier_set(m, 100)) for m in range(2, 101)),
    }

    fixtures["goldbach"] = {m: goldbach_pairs(m) for m in (4, 8, 10, 12)}

    fixtures["goldbach_counts"] = {
        m: len(goldbach_pairs(m)) for m in (4, 6, 38, 100, 128, 210, 1000, 9998, 10000)
    }

    fixtures["multi_modulus_x7"] = multi_modulus(7)
    fixtures["multi_modulus_x2"] = multi_modulus(2)

    fixtures["pigeonhole"] = {x: pigeonhole(x) for x in (7, 10, 50, 100)}
    fixtures["shift_mismatches_m10_n200"] = shift_mismatches(10, 200)

    fixtures["threshold"] = {
        x: int(x / math.sqrt(x - math.log(x))) + 1 for x in (2, 4, 20, 100, 1000, 10000)
    }

    # Smooth k on wide windows below 2**14, the slowest for a window walk.
    fixtures["tail_windows"] = {
        f"{k} in [{lo}, {hi}]": divisors_in_window(k, lo, hi)
        for k, lo, hi in ((1_164_390_390, 1_001, 9_998), (12_857_589_000, 1_500, 8_191))
    }

    # Probes for the quadratic-residue statement at p=7, a=2.
    fixtures["qr_probe_p7_a2"] = {
        "2^3 mod 7": 8 % 7,
        "ramifier(8, 7)": is_ramifier(8, 7),
        "ramifier(64, 7)": is_ramifier(64, 7),
    }

    print(json.dumps(fixtures, indent=2, sort_keys=True, default=str))


if __name__ == "__main__":
    main()
