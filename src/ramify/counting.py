"""Bulk ramifier enumeration: progression sieves, exact counts and radii,
the per-modulus counts behind the double count, and multi-modulus scans.

Two independent routes compute the same sets.  The sieve marks, for every
residue split a1 + a2 = m and inner modulus r, the arithmetic progression
of solutions of the congruence pair, solving the CRT once per r and
writing each progression as one slice of a byte array; it shares nothing
with the fast counters, which instead classify each n by its quotient
against m, with closed forms below 2m and one ascending sweep over the
moduli for the rest.  The test suite holds the two routes bit-for-bit
against each other.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, compress

from .arith import DEFAULT_BUDGET_BITS, _check_budget


@dataclass(frozen=True)
class RamifierSieve:
    """The ramifiers of one modulus as flags over n in [0, x], one byte per
    n, immutable; the bytes of 0 and 1 are always 0."""

    m: int
    x: int
    flags: bytes

    def bit(self, n: int) -> bool:
        if not 2 <= n <= self.x:
            raise ValueError(f"n={n} outside sieve range 2..{self.x}")
        return self.flags[n] == 1

    def ramifiers(self) -> list[int]:
        return list(compress(range(self.x + 1), self.flags))

    def count(self) -> int:
        return self.flags.count(1)


@dataclass(frozen=True)
class CountSummary:
    """Exact count of ramifiers n <= x for one modulus, with the two
    claimed main terms evaluated alongside and the circle radius."""

    m: int
    x: int
    count: int
    upper_main: float
    lower_main: float
    radius: int
    has_ramifiers: bool


def build_sieve(m: int, x: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> RamifierSieve:
    """Mark every ramifier n in [2, x] for modulus m by progression marking.

    n ramifies iff n = a1 (mod m) and n = a2 (mod r) for some split
    a1 + a2 = m and inner modulus r in (a2, m).  Per r, with g = gcd(m, r),
    the pair is solvable iff g divides a1 - a2 = m - 2*a2, that is iff
    g / gcd(g, 2) divides a2, and its solutions are the progression
    n0 + k*lcm(m, r) of the two-modulus CRT; g, the period and the inverse
    of m/g mod r/g are computed once per r.  Each progression is one slice
    write into the byte of n, and the sieve keeps those bytes, which is
    why the budget charges 8 bits per n.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, 8 * (x + 1), budget_bits)
    flags = bytearray(x + 1)
    ones = memoryview(b"\x01" * (x // m + 1))  # every period is a multiple of m
    for r in range(2, m):
        g = math.gcd(m, r)
        r_g = r // g
        period = m * r_g
        inv = pow(m // g, -1, r_g)
        step = g // math.gcd(g, 2)
        # a2 < r < m keeps a1, and so n0, >= 2; n0 >= a1 = m - a2, so only
        # a2 >= m - x can mark an n <= x
        first = max(step, -(-(m - x) // step) * step)
        for a2 in range(first, r, step):
            a1 = m - a2
            n0 = a1 + m * ((a2 - a1) // g * inv % r_g)
            if n0 <= x:
                flags[n0::period] = ones[: (x - n0) // period + 1]
    return RamifierSieve(m=m, x=x, flags=bytes(flags))


def upper_main_term(m: int, x: int) -> float:
    """(1 - 1/m) * x - log x / log m, the claimed ceiling with O(1) dropped."""
    return (1 - 1 / m) * x - math.log(x) / math.log(m)


def lower_main_term(m: int, x: int) -> float:
    """(x^2 - x*m) / m^2, the claimed floor with its O(1) dropped."""
    return (x * x - x * m) / (m * m)


def summarize_sieve(sieve: RamifierSieve) -> CountSummary:
    """Count, circle radius, and main-term evaluations for a built sieve."""
    flags, m, x = sieve.flags, sieve.m, sieve.x
    lowest, highest = flags.find(1), flags.rfind(1)
    radius = max(abs(lowest - m), abs(highest - m)) if lowest >= 0 else 0
    return CountSummary(
        m=m,
        x=x,
        count=flags.count(1),
        upper_main=upper_main_term(m, x),
        lower_main=lower_main_term(m, x),
        radius=radius,
        has_ramifiers=lowest >= 0,
    )


def count_ramifiers(m: int, x: int) -> CountSummary:
    """Exact ramifier count for modulus m over [2, x], via the sieve."""
    return summarize_sieve(build_sieve(m, x))


# --- closed-form counting -------------------------------------------------
#
# For a1 = n mod m >= 2 and a2 = m - a1, n ramifies iff n - a2 has a
# divisor in the open window (a2, m), a zero difference counting for every
# candidate.  Splitting on the quotient q = n // m:
#
#   q = 0 (n < m):      ramifier iff m < 3n/2 (witness 2n - m) or m = 2n
#                       (zero difference).
#   q = 1 (m < n < 2m): ramifier iff a1 > m/3 and a1 != m/2 (witness 2*a1
#                       while a1 < m/2, a1 itself beyond).
#   q >= 2 (n >= 2m):   no closed form; one sweep over the moduli answers
#                       the window test for a whole band at once.
#
# The sweep visits m in ascending order and keeps M[k] = 2*L[k] + k, where
# L[k] is the largest divisor d of k with 2 <= d < m (0 if none).  With
# c = (q + 1)*m, the window base is k = n - a2 = 2n - c, and L[k] > a2
# rearranges to M[k] > c, one comparison against a constant for the whole
# band q.  Once modulus m is done, its multiples k get L[k] = m, the
# largest divisor yet: M[m::m] = 3m, 4m, ...  Each band is then one slice
# of M and one comparison per element, with no per-n divisor search.


def _low_bands(m: int, x: int) -> list[range]:
    """The ramifiers n <= x of modulus m with n < 2m, as disjoint ranges of n
    in ascending order (the n = m/2 band first)."""
    bands = []
    if m % 2 == 0 and 4 <= m <= 2 * x:
        bands.append(range(m // 2, m // 2 + 1))
    bands.append(range(max(2, 2 * m // 3 + 1), min(m, x + 1)))
    lo, hi = m + m // 3 + 1, min(2 * m, x + 1)
    if m % 2:
        bands.append(range(lo, hi))
    else:  # n = 3m/2 has a1 = m/2, whose window (m/2, m) holds no divisor of m
        bands += [range(lo, min(hi, 3 * m // 2)), range(3 * m // 2 + 1, hi)]
    return bands


def _sweep(x: int, m_lo: int, m_hi: int):
    """Yield (m, low, windows) for m = m_lo..m_hi in ascending order.

    ``low`` is ``_low_bands(m, x)``.  ``windows`` holds one (ns, c, ks)
    triple per quotient band q >= 2, with c = (q + 1)*m: ``ns`` is the
    range of n in the band, and ns[i] ramifies iff ks[i] > c.
    """
    M = list(range(x + 1))
    for m in range(2, m_hi + 1):
        if m >= m_lo:
            windows = []
            for c in range(3 * m, x + m - 1, m):  # each q >= 2 with q*m + 2 <= x
                ns = range(c - m + 2, min(c, x + 1))
                windows.append((ns, c, M[2 * ns.start - c : 2 * ns.stop - c : 2]))
            yield m, _low_bands(m, x), windows
        M[m::m] = range(3 * m, x + 2 * m + 1, m)


#: Bits ramifier_counts charges per n in [0, x], from what it holds at its
#: peak: the sweep's list M, a slot and an int (40 bytes) per n, and the
#: band windows of the moduli 2 and 3, which are alive together: 1/2 + 1/3
#: of a window per n, each about 240 bytes for its tuple, range, bound,
#: slice and list slot.  That is about 1,940 bits, rounded up; tracemalloc
#: measures a peak of about 1,930 bits per n at x = 10**4 and 10**5.
_SWEEP_BITS_PER_N = 2048


def ramifier_counts(x: int, m_lo: int, m_hi: int) -> list[int]:
    """Exact per-modulus ramifier counts over [2, x] for m in [m_lo, m_hi]."""
    if not 2 <= m_lo <= m_hi <= x:
        raise ValueError("need 2 <= m_lo <= m_hi <= x")
    _check_budget(x, _SWEEP_BITS_PER_N * (x + 1), DEFAULT_BUDGET_BITS)
    return [
        sum(map(len, low)) + sum(len([k for k in ks if k > c]) for _, c, ks in windows)
        for _, low, windows in _sweep(x, m_lo, m_hi)
    ]


def multi_modulus_ramifiers(x: int) -> list[tuple[int, list[int]]]:
    """Every n <= x ramifying in at least two moduli m <= x, ascending in n,
    each paired with its full ascending modulus list."""
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, x + 1, DEFAULT_BUDGET_BITS)
    moduli: list[list[int]] = [[] for _ in range(x + 1)]
    for m, low, windows in _sweep(x, 2, x):  # ascending m keeps each list sorted
        for ns in low:
            for ms in moduli[ns.start : ns.stop]:
                ms.append(m)
        for ns, c, ks in windows:
            for ms, k in zip(moduli[ns.start : ns.stop], ks):
                if k > c:
                    ms.append(m)
    return [(n, ms) for n, ms in enumerate(moduli) if len(ms) >= 2]


def low_band_counts(x: int) -> array:
    """For every n in [0, x], the number of moduli m in [2, x] that hold n in
    their closed-form bands n < 2m; each such n is a proved ramifier of m.

    One difference array over all the bands, so the cost is O(x) in time
    and in memory (a 32-bit counter per n, charged against the budget).
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, 32 * (x + 2), DEFAULT_BUDGET_BITS)
    diff = array("i", bytes(4 * (x + 2)))
    for m in range(2, x + 1):
        for band in _low_bands(m, x):
            if band:
                diff[band.start] += 1
                diff[band.stop] -= 1
    return array("i", accumulate(diff[: x + 1]))


def threshold(x: int) -> int:
    """floor(x / sqrt(x - ln x)) + 1, the crossover modulus scale below which
    the claimed lower bound would overtake the claimed ceiling."""
    if x < 2:
        raise ValueError("x must be >= 2")
    return int(x / math.sqrt(x - math.log(x))) + 1
