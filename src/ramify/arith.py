"""Exact integer helpers shared by the ramifier predicates and sieves:
flag tables (one byte, 0 or 1, per integer, kept as immutable ``bytes``)
with their budget and their one conversion to an int bitset, a prime
table, divisor scans over a window, and a primality test by that scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress

#: Default cap, in bits, for any table allocated by this package.
DEFAULT_BUDGET_BITS = 1 << 30


class ResourceBudgetError(Exception):
    """A sieve or table would exceed its memory budget, or divisors_in_range
    would list or scan more than _SCAN_MAX candidates, as it counts them."""


def _check_budget(x: int, bits: int, budget_bits: int) -> None:
    if bits > budget_bits:
        raise ResourceBudgetError(
            f"range to {x} needs {bits} bits, over the budget of {budget_bits} bits"
        )


def bitset(flags: bytes) -> int:
    """The int whose bit n is flags[n]; every byte of flags must be 0 or 1."""
    v = 0
    for j in range(8):
        v |= int.from_bytes(flags[j::8], "little") << j
    return v


@dataclass(frozen=True)
class PrimeTable:
    """Primality flags for 0..limit, one byte per integer, immutable."""

    limit: int
    flags: bytes

    def is_prime(self, p: int) -> bool:
        if not 0 <= p <= self.limit:
            raise ValueError(f"{p} outside table range 0..{self.limit}")
        return self.flags[p] == 1

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """All primes <= limit, ascending."""
        return tuple(compress(range(self.limit + 1), self.flags))


def prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to and including limit; the table keeps a
    byte, and so charges 8 bits, per integer in [0, limit]."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _check_budget(limit, 8 * (limit + 1), DEFAULT_BUDGET_BITS)
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return PrimeTable(limit=limit, flags=bytes(flags))


#: The smooth route's cost in scan candidates.  A scan candidate costs about
#: 75 ns.  Listing the divisors of the smooth part K costs about 5 us, 64
#: candidates, and the gcd that finds K about 0.55 ns per bit of the tier's
#: lcm, 1/128 of a candidate (direct calls on point-query windows, 2-vCPU
#: Xeon, Python 3.11).  So a window with hi below _SMOOTH_MAX takes the
#: smooth route when its scan would visit more than
#: _SMOOTH_BASE + L.bit_length() // _SMOOTH_BITS candidates, L the lcm of
#: its tier: 64 at tier 80, 69 at tier 512, 110 at 4096 and 248 at 2**14.
#: Over 1,500 point-query windows of more than 32 candidates below 2**14,
#: this gate took 7% more time than the cheaper route of each window would.
_SMOOTH_BASE = 64
_SMOOTH_BITS = 128

#: The most candidates one call lists or scans: about 1.4 s of trial division
#: on a 2-vCPU Xeon under Python 3.11.
_SCAN_MAX = 1 << 24


def _check_scan(candidates: int, lo: int, hi: int) -> None:
    if candidates > _SCAN_MAX:
        raise ResourceBudgetError(
            f"window [{lo}, {hi}] needs {candidates} candidates, over the cap of {_SCAN_MAX}"
        )


#: Wide windows with hi below this bound list the divisors of their smooth
#: part instead of scanning.
_SMOOTH_MAX = 1 << 14


@cache
def _smooth_primes() -> tuple[int, ...]:
    """The primes below _SMOOTH_MAX, built on first use and kept."""
    return prime_table(_SMOOTH_MAX).primes


@cache
def _smooth_lcm(t: int) -> int:
    """lcm(1, ..., t), t <= _SMOOTH_MAX: the product of the largest power <= t
    of each prime <= t, built on first use of tier t and kept.

    The tier of a window is the least quarter-octave point above its top hi,
    t = ((hi >> s) + 1) << s with s = hi.bit_length() - 3, so t is 5, 6, 7
    or 8 times 2**s and exceeds hi by at most 2**s.  Only windows of more
    than 64 candidates ask for a tier, so hi > 64 and t >= 80.  Against the
    next power of two this shrinks the lcm, the gcd's big operand, by about
    a fifth on average.
    """
    L = 1
    for p in _smooth_primes():
        if p > t:
            break
        q = p
        while q * p <= t:
            q *= p
        L *= q
    return L


def _smooth_divisors(K: int, lo: int, hi: int) -> list[int]:
    """Ascending divisors of K > 0 in [lo, hi], from K's factorisation over
    the primes below _SMOOTH_MAX, which must hold every prime factor of K.

    Trial division by the primes in ascending order stops once p*p exceeds
    the cofactor, which is then 1 or a prime.  The divisors grow as
    products of prime powers, and a product above hi is dropped as soon as
    it appears, so the cost is about pi(second-largest prime factor of K)
    divisions plus one step per divisor of K up to hi.
    """
    divs = [1]
    c = K
    for p in _smooth_primes():
        if p * p > c:
            break
        if c % p:
            continue
        c //= p
        powers = [p]
        while c % p == 0:
            c //= p
            powers.append(powers[-1] * p)
        divs += [d * q for q in powers for d in divs if d * q <= hi]
    if c > 1:
        divs += [d * c for d in divs if d * c <= hi]
    out = [d for d in divs if d >= lo]
    out.sort()
    return out


def divisors_in_range(k: int, lo: int, hi: int) -> list[int]:
    """Ascending divisors of k inside [lo, hi]; every r >= lo divides 0.

    A divisor of k > 0 is a d <= sqrt(k) or the cofactor k // d of one, so
    the scan visits the d in [a, b], a = min(lo, ceil(k/hi)) and
    b = min(hi, k // lo, isqrt(k)).  It answers the hits d >= lo, then the
    cofactors above sqrt(k) that lie in the window, descending in d and so
    ascending.  The candidate count b - a + 1 picks one of three routes:

    - k = 0: the whole window;
    - hi < _SMOOTH_MAX and more candidates than the smooth route costs,
      _SMOOTH_BASE + L.bit_length() // _SMOOTH_BITS: no scan.  Every
      r <= hi divides L = lcm(1, ..., t) for the tier t > hi of _smooth_lcm,
      so r divides k exactly when it divides the smooth part K = gcd(k, L).
      A K below lo has no divisor in the window, and otherwise
      _smooth_divisors lists K's divisors up to hi from its factorisation;
    - otherwise the scan of [a, b].

    The k = 0 list and the scan raise ResourceBudgetError beyond _SCAN_MAX
    candidates; the smooth route never reaches that many.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if lo < 2:
        raise ValueError("lo must be >= 2")
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    if k == 0:
        _check_scan(hi - lo + 1, lo, hi)
        return list(range(lo, hi + 1))
    if k < lo:
        return []  # every divisor of k > 0 is at most k
    root = math.isqrt(k)
    if hi <= root:
        a, b = lo, hi  # a window below sqrt(k) holds no cofactor
    else:
        c = -(-k // hi)  # the least d whose cofactor k // d is at most hi
        # min(lo, c), and min(k // lo, root), which is root when lo <= root,
        # spelled out because a call to min() costs more than a small scan
        a, b = (lo if lo < c else c), (root if lo <= root else k // lo)
    count = b - a + 1
    if count > _SMOOTH_BASE:
        if hi < _SMOOTH_MAX:
            s = hi.bit_length() - 3  # at least 4: count <= hi puts hi above 64
            L = _smooth_lcm(((hi >> s) + 1) << s)
            if count > _SMOOTH_BASE + L.bit_length() // _SMOOTH_BITS:
                K = math.gcd(k, L)
                return _smooth_divisors(K, lo, hi) if K >= lo else []  # divisors of K are <= K
        else:
            _check_scan(count, lo, hi)
    hits = [d for d in range(a, b + 1) if k % d == 0]
    if hi <= root or not hits:
        return hits
    return [d for d in hits if d >= lo] + [k // d for d in reversed(hits) if d >= c and d * d < k]


def is_prime(p: int) -> bool:
    """Whether p is prime: p >= 2 with no divisor in [2, isqrt(p)].  That window
    takes the smooth route for p in [66**2, 2**28), where a prime p leaves the
    smooth part 1, and a scan elsewhere.  From 2**28, where the scan starts to
    reach _SMOOTH_MAX, one gcd with lcm(1, ..., 2**14) first rules out every p
    with a prime factor below 2**14; the scan of the rest raises
    ResourceBudgetError from about 2**48, past _SCAN_MAX candidates."""
    if p >= _SMOOTH_MAX * _SMOOTH_MAX and math.gcd(p, _smooth_lcm(_SMOOTH_MAX)) > 1:
        return False
    return p >= 2 and (p < 4 or not divisors_in_range(p, 2, math.isqrt(p)))
