"""Naive oracles straight off the definitions, shared by the test modules.

They share no code with the package: n ramifies in modulus m when some
inner modulus 2 <= r < m has n mod r = m - n mod m, and primality is trial
division.
"""

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
