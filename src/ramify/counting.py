"""Bulk ramifier enumeration: progression sieves, exact counts and radii,
the per-modulus counts behind the double count, and multi-modulus scans.

Two independent routes compute the same sets.  The sieve marks, for every
residue split a1 + a2 = m and inner modulus r, the arithmetic progression
of solutions of the congruence pair, finding each progression's least
member from its quotient by m and writing the progression as one slice of
a byte array; it shares nothing with the fast counters, which instead
classify each n by its quotient against m, with closed forms below 2m and
one ascending sweep over the moduli for the rest.  The test suite holds
the two routes bit-for-bit against each other.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress

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


def _progressions(m: int, x: int):
    """Yield (r, period, starts) for each inner modulus r of modulus m that
    can witness an n <= x, ascending in r, with period = lcm(m, r).  The
    pairs (n, r) of a witness with n <= x are the members n0, n0 + period,
    ... <= x of the progressions that start at the n0 in ``starts``; the
    members of one share the residues n0 % m and n0 % r.

    n ramifies through r iff n = m - a2 (mod m) and n = a2 (mod r) with a2 in
    [1, r).  The least such n is c - a2 with c = m*(1 + t),
    0 <= t < r/gcd(m, r), and 2*a2 = c (mod r), so the walk takes the
    quotients c, not the residues: a2 is c*(r + 1)/2 mod r for odd r, and for
    even r and c it is c/2 mod r/2 or that plus r/2.  As n > m - r, only
    r > m - x reaches an n <= x, and the walk takes at most x + min(m, x)
    steps.  ``starts`` is in the order of the walk, not ascending.
    """
    for r in range(max(2, m - x + 1), m):
        period = m * r // math.gcd(m, r)
        stop = min(period + 1, x + r)  # c <= period, and c - a2 <= x needs c < x + r
        if r % 2:
            h = (r + 1) // 2  # 2*h = 1 (mod r)
            starts = [c - a2 for c in range(m, stop, m) if (a2 := c * h % r) and c - a2 <= x]
        else:
            h = r // 2
            cs = range(math.lcm(m, 2), stop, math.lcm(m, 2))
            starts = [c - a2 for c in cs if (a2 := c // 2 % h) and c - a2 <= x]
            starts += [n for c in cs if (n := c - c // 2 % h - h) <= x]
        yield r, period, starts


def build_sieve(m: int, x: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> RamifierSieve:
    """Mark every ramifier n in [2, x] for modulus m by progression marking.

    ``_progressions`` gives, per inner modulus r, the least member of every
    progression of ramifiers that r witnesses.  Each progression, period
    lcm(m, r), is one slice write into a byte per n (one byte when the
    period exceeds x), which is why the budget charges 8 bits per n.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, 8 * (x + 1), budget_bits)
    flags = bytearray(x + 1)
    ones = memoryview(b"\x01" * (x // m + 1))  # every period is a multiple of m
    for _, period, starts in _progressions(m, x):
        if period > x:
            for n in starts:
                flags[n] = 1
        else:
            for n in starts:
                flags[n::period] = ones[: (x - n) // period + 1]
    return RamifierSieve(m=m, x=x, flags=bytes(flags))


def summarize_sieve(sieve: RamifierSieve) -> CountSummary:
    """Count, circle radius, and main-term evaluations for a built sieve."""
    flags, m, x = sieve.flags, sieve.m, sieve.x
    lowest, highest = flags.find(1), flags.rfind(1)
    radius = max(abs(lowest - m), abs(highest - m)) if lowest >= 0 else 0
    return CountSummary(
        m=m,
        x=x,
        count=flags.count(1),
        upper_main=(1 - 1 / m) * x - math.log(x) / math.log(m),  # the claimed ceiling
        lower_main=(x * x - x * m) / (m * m),  # the claimed floor, both with O(1) dropped
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
# Read per n instead, the first two bands are ranges of m: q = 0 holds n
# for n < m < 3n/2 and m = 2n, and q = 1 for n/2 < m < 3n/4 (a1 = n - m
# > m/3 is 3n > 4m), less m = 2n/3, where a1 = m/2.  Every m of a band
# q >= 2 is below n/2, so an n's moduli ascend with those bands first.
#
# The sweep visits m in ascending order and keeps L[k], the largest divisor
# d of k with 2 <= d < m (0 if none), for every k <= x.  With c = (q + 1)*m,
# the window base of n = q*m + a1 is k = n - a2 = 2n - c, and n ramifies iff
# L[k] > a2.  Once modulus m is done, its multiples k get L[k] = m, the
# largest divisor yet.
#
# L lives in two arrays, the planes: plane k % 2 holds L[k] at index k // 2.
# The k of band q (a1 = 2..m-1) share the parity of c and step by 2, so the
# band is a contiguous run of m - 2 indices of one plane.  Band q + 2 starts
# m indices later in the same plane, and the two indices between belong to
# a1 = 0 and 1, which never ramify; so the bands with q even form one run,
# and those with q odd another.  The multiples of m in a plane are one
# strided slice, written by one slice assignment.
#
# A run is tested by SIMD within a register (Lamport, "Multiple byte
# processing with full-word instructions", CACM 18(8), 1975).  It is read as
# one int of b-bit fields, field i holding the i-th L of the run, with the
# guard bit G = 2**(b - 1) above x.  Within a band a1 = i + 2 and
# a2 = m - 2 - i, so adding the ramp, whose field is G - 1 - a2 there and 0
# between bands, sets a field's guard bit exactly where L > a2; both terms
# are below G, so no field carries into the next.  The ramp is one slice of
# a single ascending array and two zeros, repeated.  Masking the guard bits
# leaves one bit per ramifier.  Arrays and ints are converted in the host's
# byte order and at the exact length of the run, so a run and its ramp line
# up field by field, and to_bytes gives the fields back in the run's order.


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


def _low_moduli(n: int, x: int) -> list[range]:
    """The moduli m <= x that hold n in a band n < 2m of ``_low_bands``, for
    2 <= n <= x, as disjoint ranges of m in ascending order."""
    top = min((3 * n - 1) // 4, x) + 1  # q = 1: n/2 < m < 3n/4
    if n % 3:
        mods = [range(n // 2 + 1, top)]
    else:  # m = 2n/3 has a1 = m/2
        mods = [range(n // 2 + 1, min(2 * n // 3, top)), range(2 * n // 3 + 1, top)]
    mods.append(range(n + 1, min((3 * n - 1) // 2, x) + 1))  # q = 0: n < m < 3n/2
    if 2 * n <= x:
        mods.append(range(2 * n, 2 * n + 1))
    return mods


def _field_type(x: int) -> str:
    """The array typecode of the sweep's fields: 16 bits while the guard bit
    2**15 exceeds x, else 32, which holds every x below the 2**22 that the
    budgets of ramifier_counts and rows admit."""
    return "H" if x < 1 << 15 else "I"


def _sweep(x: int, m_lo: int, m_hi: int):
    """Yield (m, runs) for m = m_lo..m_hi in ascending order.

    ``runs`` holds a (start, fields, guards) triple for the quotient bands
    q >= 2 with q even, then one for q odd, each while it has a band: field p
    of the run stands for n = start + p + (p // m)*m, and that n ramifies iff
    bit p*b + b - 1 of ``guards`` is set, b the width of ``_field_type(x)``;
    no other bit is set.  The bands q < 2 are ``_low_bands(m, x)``.
    """
    typecode = _field_type(x)
    width = array(typecode).itemsize
    G = 1 << (8 * width - 1)
    order = sys.byteorder
    ramp = array(typecode, range(G - x, G - 1))  # ramp[x - 1 - a2] = G - 1 - a2
    gap = array(typecode, [0, 0])
    # the guard bit of every field of a plane, and so of every run
    guard = int.from_bytes(array(typecode, [G]) * (x // 2 + 1), order)
    even = array(typecode, bytes(width * (x // 2 + 1)))  # L[0], L[2], ...
    odd = array(typecode, bytes(width * ((x + 1) // 2)))  # L[1], L[3], ...
    # L matters only to moduli that have a band q >= 2, those with 2m + 2 <= x
    last = min(m_hi, x // 2 - 1)
    with memoryview(even) as ev, memoryview(odd) as ov:
        planes = (ev, ov)
        for m in range(2, m_hi + 1):
            if m >= m_lo:
                runs = []
                if 2 * m + 2 <= x:
                    # one band of the ramp, a2 = m - 2 down to 1, and the gap
                    period = ramp[x + 1 - m : x - 1] + gap
                    for start in range(2 * m + 2, min(4 * m + 2, x + 1), m):  # q = 2, 3
                        bands = (x - start) // (2 * m) + 1
                        top = start + 2 * m * (bands - 1)  # n at the last band's start
                        fields = m * (bands - 1) + min(m - 2, x + 1 - top)
                        k = start - m + 2  # the window base 2n - c of n = start
                        L = int.from_bytes(planes[k & 1][k >> 1 : (k >> 1) + fields], order)
                        T = int.from_bytes((period * bands)[:fields], order)
                        runs.append((start, fields, (L + T) & guard))
                yield m, runs
            if m < last:
                if m % 2:
                    multiples = ((even, m, m), (odd, m // 2, m))
                else:
                    multiples = ((even, m // 2, m // 2),)
                for plane, first, step in multiples:
                    count = len(range(first, len(plane), step))
                    if count:  # an empty extended slice would resize the exported plane
                        plane[first::step] = array(typecode, [m]) * count


#: Bits ramifier_counts charges per n in [0, x].  The packed sweep holds two
#: planes and the ramp, b = 16 or 32 bits per n each, a guard mask of b/2,
#: and the two runs of one modulus with their ramp; the result list keeps a
#: slot and an int, 288 bits, per modulus.  tracemalloc measures a peak of
#: about 380 bits per n at x = 3,000 and 10**4.  The charge stays at 2048
#: bits, which caps x below 2**19: a lower charge would admit C7 inputs
#: whose O(x**2) sweep runs for hours, since no budget bounds time yet.
_SWEEP_BITS_PER_N = 2048


def ramifier_counts(x: int, m_lo: int, m_hi: int) -> list[int]:
    """Exact per-modulus ramifier counts over [2, x] for m in [m_lo, m_hi]."""
    if not 2 <= m_lo <= m_hi <= x:
        raise ValueError("need 2 <= m_lo <= m_hi <= x")
    _check_budget(x, _SWEEP_BITS_PER_N * (x + 1), DEFAULT_BUDGET_BITS)
    return [
        sum(map(len, _low_bands(m, x))) + sum(guards.bit_count() for _, _, guards in runs)
        for m, runs in _sweep(x, m_lo, m_hi)
    ]


def _run_flags(guards: int, fields: int, width: int) -> bytes:
    """One byte per field of a run of ``_sweep``: 1 where the field's guard
    bit is set, else 0; width is the field's size in bytes."""
    # every byte of a field holds its guard bit, so one byte per field is its
    # flag, whichever end of the field it is
    spread = (guards >> (8 * width - 1)) * int.from_bytes(b"\x01" * width, "little")
    return spread.to_bytes(width * fields, sys.byteorder)[::width]


#: Bits rows charges per n in [0, x].  The sweep holds its two planes and
#: the ramp, b = 16 or 32 bits per n each, the guard mask of b/2 and the two
#: runs of one modulus, b/2 each with the slice of its ramp; a run's flags
#: take b/2 bits as bytes and 4 as one byte per field, and the row and its
#: bytes 8 each.  tracemalloc measures a peak of 132-139 bits per n with
#: b = 16 (x = 3,000 and 10**4) and 238-239 with b = 32 (x = 4*10**4 and
#: 10**5); C11, which holds two slices of a row as ints and their XOR as
#: bytes beside the sweep, peaks at 266 at x = 10**5.  The charge caps x
#: below 2**30 / 320, about 3.36 million.
_ROW_BITS_PER_N = 320


def rows(x: int, m_lo: int, m_hi: int):
    """Yield the RamifierSieve of each m = m_lo..m_hi over [0, x], ascending
    in m, with the flags of build_sieve(m, x), read off one packed sweep.

    The bands n < 2m are slices of ones (``_low_bands``); each run of the
    sweep's bands q >= 2 becomes one flag byte per field, placed band by
    band, or column by column (field i of every band, a stride of 2m in n)
    where a run has fewer columns than bands.
    """
    if m_lo < 2:
        raise ValueError("m must be >= 2")
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, _ROW_BITS_PER_N * (x + 1), DEFAULT_BUDGET_BITS)
    width = array(_field_type(x)).itemsize
    for m, runs in _sweep(x, m_lo, m_hi):
        row = bytearray(x + 1)
        for band in _low_bands(m, x):
            row[band.start : band.stop] = b"\x01" * len(band)
        for start, fields, guards in runs:
            flags = _run_flags(guards, fields, width)
            if m * m < fields:
                for i in range(m - 2):  # the last two fields of a band are a1 = 0, 1
                    row[start + i :: 2 * m] = flags[i::m]
            else:
                for p in range(0, fields, m):  # the band of n = start + 2p
                    row[start + 2 * p : start + 2 * p + m - 2] = flags[p : p + m - 2]
        yield RamifierSieve(m=m, x=x, flags=bytes(row))


#: Bits multi_modulus_ramifiers charges per pair (n, m) with n, m <= x.  Its
#: lists hold about 0.4*x**2 moduli, each an 8-byte slot, with up to 1/8 more
#: for over-allocation: about 29 bits per pair, since the moduli themselves
#: are shared ints.  tracemalloc measures a peak of 28.5 bits per pair at
#: x = 300, 27.3 at 1,000 and 26.8 at 2,000.  So the default budget holds
#: x <= 5792, and the x near 2,500 of the counting benchmark takes a fifth.
_MULTI_BITS_PER_PAIR = 32


def multi_modulus_ramifiers(x: int) -> list[tuple[int, list[int]]]:
    """Every n <= x ramifying in at least two moduli m <= x, ascending in n,
    each paired with its full ascending modulus list."""
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, _MULTI_BITS_PER_PAIR * x * x, DEFAULT_BUDGET_BITS)
    width = array(_field_type(x)).itemsize
    moduli: list[list[int]] = [[] for _ in range(x + 1)]
    for m, runs in _sweep(x, 2, x):  # ascending m keeps each list sorted
        for start, fields, guards in runs:
            flags = _run_flags(guards, fields, width)
            for p in range(0, fields, m):  # the band of n = start + 2p, ...
                n = start + 2 * p
                for ms in compress(moduli[n : n + m - 2], flags[p : p + m - 2]):
                    ms.append(m)
    # the moduli of the bands n < 2m are above n/2, so above those of the sweep;
    # as slices of one list they share its ints
    mods = list(range(x + 1))
    for n in range(2, x + 1):
        for band in _low_moduli(n, x):
            moduli[n] += mods[band.start : band.stop]
    return [(n, ms) for n, ms in enumerate(moduli) if len(ms) >= 2]


def threshold(x: int) -> int:
    """floor(x / sqrt(x - ln x)) + 1, the crossover modulus scale below which
    the claimed lower bound would overtake the claimed ceiling."""
    if x < 2:
        raise ValueError("x must be >= 2")
    return int(x / math.sqrt(x - math.log(x))) + 1
