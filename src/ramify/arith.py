"""Exact integer helpers shared by the ramifier predicates and sieves.

Plain integer arithmetic only: gcd / extended gcd, a two-modulus Chinese
remainder solver, a bit-packed prime table, and divisor scans over a
window.  The operating envelope is unsigned 64-bit; the one product that
can leave it (the CRT period) is checked instead of being allowed to
grow silently into a nonsense report.  That check guards only
``crt_solve``, whose one caller in the package is ``admits_ramifier``:
``counting.build_sieve`` solves its congruences inline and has no
overflow path, since its periods lie below m**2 and a progression whose
start exceeds x marks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

U64_LIMIT = 1 << 64

#: Default cap, in bits, for any bitmap allocated by this package.
DEFAULT_BUDGET_BITS = 1 << 30

_BIT = (1, 2, 4, 8, 16, 32, 64, 128)


class ResourceBudgetError(Exception):
    """A sieve or table would exceed the configured memory budget."""


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two non-negative integers, gcd(0, 0) = 0."""
    return math.gcd(a, b)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with a*s + b*t = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class CrtSolution:
    """Least non-negative solution of a two-congruence system, with its period."""

    least: int
    period: int


def crt_solve(a1: int, m: int, a2: int, r: int) -> CrtSolution | None:
    """Solve n = a1 (mod m) and n = a2 (mod r) simultaneously.

    Returns None when gcd(m, r) does not divide a1 - a2 (the system is
    unsolvable); otherwise the least non-negative solution together with
    the period lcm(m, r).

    Raises OverflowError when lcm(m, r) does not fit in 64 bits, and
    ValueError on residues outside their modulus.
    """
    if m < 1 or r < 1:
        raise ValueError("moduli must be >= 1")
    if not 0 <= a1 < m:
        raise ValueError(f"residue a1={a1} out of range for modulus {m}")
    if not 0 <= a2 < r:
        raise ValueError(f"residue a2={a2} out of range for modulus {r}")
    g = math.gcd(m, r)
    if (a1 - a2) % g:
        return None
    period = m // g * r
    if period >= U64_LIMIT:
        raise OverflowError(f"lcm({m}, {r}) exceeds 64 bits")
    r_g = r // g
    t = (a2 - a1) // g * pow(m // g, -1, r_g) % r_g
    return CrtSolution(least=a1 + m * t, period=period)


@dataclass(frozen=True)
class PrimeTable:
    """Bit-packed primality table for 0..limit, immutable after construction."""

    limit: int
    bits: bytes

    def is_prime(self, p: int) -> bool:
        if not 0 <= p <= self.limit:
            raise ValueError(f"{p} outside table range 0..{self.limit}")
        return bool(self.bits[p >> 3] & _BIT[p & 7])

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """All primes <= limit, ascending."""
        return tuple(
            p for p in range(2, self.limit + 1) if self.bits[p >> 3] & _BIT[p & 7]
        )


def prime_table(limit: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> PrimeTable:
    """Sieve of Eratosthenes up to and including limit."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit + 1 > budget_bits:
        raise ResourceBudgetError(f"prime table to {limit} exceeds {budget_bits} bits")
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    bits = bytearray((limit >> 3) + 1)
    for p in range(2, limit + 1):
        if flags[p]:
            bits[p >> 3] |= _BIT[p & 7]
    return PrimeTable(limit=limit, bits=bytes(bits))


def divisors_in_range(k: int, lo: int, hi: int) -> list[int]:
    """Ascending divisors of k inside [lo, hi]; every r >= lo divides 0.

    Scans whichever is smaller: the window itself or the divisor pairs of
    k, so the cost is O(min(hi - lo, sqrt(k))).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if lo < 2:
        raise ValueError("lo must be >= 2")
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    if k == 0:
        return list(range(lo, hi + 1))
    root = math.isqrt(k)
    if hi - lo <= 2 * root:
        return [r for r in range(lo, hi + 1) if k % r == 0]
    out = []
    for d in range(1, root + 1):
        if k % d == 0:
            if lo <= d <= hi:
                out.append(d)
            q = k // d
            if q != d and lo <= q <= hi:
                out.append(q)
    out.sort()
    return out
