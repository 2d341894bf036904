"""Naive oracles straight off the definitions, shared by the test modules.

They share no code with the package: n ramifies in modulus m when some
inner modulus 2 <= r < m has n mod r = m - n mod m, and primality is trial
division.
"""

import bisect
import functools
import math


def naive_witness_rs(n, m):
    """The inner moduli witnessing that n ramifies in modulus m, ascending."""
    return [r for r in range(2, m) if n % r == m - n % m]


def naive_is_ramifier(n, m):
    return any(n % r == m - n % m for r in range(2, m))


def naive_set(m, x):
    """The ramifiers n <= x of modulus m, ascending."""
    return [n for n in range(2, x + 1) if naive_is_ramifier(n, m)]


def naive_is_prime(v):
    return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))


#: The quarter-octave points from 80 to 2**14: 5, 6, 7 and 8 times each
#: power of two from 16.  A window takes the smooth route only past 64
#: candidates, so only with hi >= 65, whose tier is 80 or above.
TIERS = sorted({c << s for c in range(5, 9) for s in range(4, 12)})


def smooth_tier(hi):
    """The least quarter-octave point above hi in [65, 2**14): the tier t
    whose lcm(1, ..., t) the smooth route of a window ending at hi takes its
    gcd with."""
    return TIERS[bisect.bisect_right(TIERS, hi)]


@functools.cache
def tier_lcm(t):
    """lcm(1, ..., t), kept."""
    return math.lcm(*range(1, t + 1))


def crossover(hi):
    """The most candidates a scan of a window ending at hi in [65, 2**14)
    visits before the smooth route costs less: 64 plus one per 128 bits of
    its tier's lcm."""
    return 64 + tier_lcm(smooth_tier(hi)).bit_length() // 128


def window_candidates(k, lo, hi):
    """How many d a scan of the window [lo, hi] for divisors of k > 0 visits:
    those in [min(lo, ceil(k/hi)), min(hi, k // lo, isqrt(k))]."""
    return min(hi, k // lo, math.isqrt(k)) - min(lo, -(-k // hi)) + 1
