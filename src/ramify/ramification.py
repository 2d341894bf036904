"""Ramifier predicates, witnesses, the character, and per-modulus searches.

An integer n >= 2 ramifies in modulus m >= 2 when, writing a1 = n mod m,
some inner modulus r with 2 <= r < m satisfies n mod r = m - a1: the two
canonical residues then split m additively.  Equivalently, with
a2 = m - a1, the witnesses are exactly the divisors of n - a2 lying in
the open window (a2, m), where a difference of zero is divisible by
every candidate.  Residues are least non-negative representatives
throughout, and r = 1 is excluded (n mod 1 = 0 would force a1 = m).

A witness is strong when both residues are prime; searching for a strong
witness of some n is then the same problem as splitting m into a prime
pair, which is where the even-modulus sweeps in the claims module get
their interest.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .arith import PrimeTable, bitset, divisors_in_range, is_prime
from .counting import _low_bands


@dataclass(frozen=True)
class Witness:
    """Certificate that n ramifies in modulus m via inner modulus r."""

    m: int
    n: int
    a1: int
    r: int
    a2: int

    def validate(self) -> None:
        """Check every structural invariant of a witness, in order, and raise
        ValueError at the first that fails (``python -O`` keeps the checks)."""
        if not (self.n >= 2 and self.m >= 2):
            raise ValueError("domain requires n >= 2, m >= 2")
        if self.a1 != self.n % self.m:
            raise ValueError("a1 must be the canonical residue mod m")
        if self.a2 != self.n % self.r:
            raise ValueError("a2 must be the canonical residue mod r")
        if self.a1 + self.a2 != self.m:
            raise ValueError("residues must split the modulus")
        if not self.a2 < self.r < self.m:
            raise ValueError("inner modulus must lie in (a2, m)")
        if self.r < 2:
            raise ValueError("inner modulus must be >= 2")


@dataclass(frozen=True)
class StrongWitness:
    """Witness whose two residues are both prime."""

    m: int
    n: int
    p1: int
    r: int
    p2: int

    def validate(self) -> None:
        Witness(m=self.m, n=self.n, a1=self.p1, r=self.r, a2=self.p2).validate()
        for p in (self.p1, self.p2):
            if not is_prime(p):
                raise ValueError(f"residue {p} is not prime")


@dataclass(frozen=True)
class IndexRecord:
    """The least witnessing inner modulus for (n, m), plus the full list."""

    m: int
    n: int
    index: int
    all_indices: tuple[int, ...]


def _check_domain(n: int, m: int) -> None:
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 2:
        raise ValueError("m must be >= 2")


@lru_cache(maxsize=2)
def _witness_moduli(n: int, m: int) -> tuple[int, ...]:
    """The inner moduli witnessing that n ramifies in modulus m, ascending.

    A serving caller asks character, index_of and strong_witnesses of the
    same (n, m) in turn; the two-slot memo lets them share one window scan.
    The answer is an immutable tuple and its key is the whole input, so a
    hit is never stale; two slots keep the memory bounded by two answers.
    """
    _check_domain(n, m)
    a1 = n % m
    if a1 <= 1:
        # a1 = 0 would need a2 = m >= r, and a1 = 1 leaves the empty window
        # (m - 1, m); neither admits an inner modulus.
        return ()
    a2 = m - a1
    return tuple(divisors_in_range(abs(n - a2), a2 + 1, m - 1))


def ramifier_witnesses(n: int, m: int) -> list[Witness]:
    """All witnesses that n ramifies in modulus m, ascending by inner modulus."""
    rs = _witness_moduli(n, m)
    a1 = n % m
    a2 = m - a1
    return [Witness(m, n, a1, r, a2) for r in rs]


def character(n: int, m: int) -> int:
    """Indicator (0 or 1) of whether n ramifies in modulus m."""
    return 1 if _witness_moduli(n, m) else 0


def index_of(n: int, m: int) -> IndexRecord | None:
    """Least witnessing inner modulus of (n, m), or None for a non-ramifier.

    Several inner moduli can witness the same pair, so the full ascending
    list rides along with the minimum.
    """
    rs = _witness_moduli(n, m)
    if not rs:
        return None
    return IndexRecord(m, n, rs[0], rs)


def strong_witnesses(n: int, m: int, primes: PrimeTable) -> list[StrongWitness]:
    """The witnesses of (n, m) whose residues are both prime.

    The residues are tested first, so a split that is not a prime pair
    costs no window scan.
    """
    if primes.limit < m:
        raise ValueError(f"prime table reaches {primes.limit}, need >= {m}")
    _check_domain(n, m)
    a1 = n % m
    a2 = m - a1
    # the limit check puts a1 and a2, both at most m, inside the table
    if not (primes.flags[a1] and primes.flags[a2]):
        return []
    return [StrongWitness(m, n, a1, r, a2) for r in _witness_moduli(n, m)]


def _least_inner(k: int, a2: int, m: int) -> int:
    """The least inner modulus r in (a2, m) that divides k = n - a2, for a
    ramifier n of modulus m, so that one exists.

    k = 0 (the band n = m/2) is divided by every candidate, so r = a2 + 1.
    Every proper divisor of k is at most k/2, so a k <= 2*a2 has none in the
    window, and its witness is k itself.  Only the rest scan the window.
    """
    if k == 0:
        return a2 + 1
    if k <= 2 * a2:
        return k
    return divisors_in_range(k, a2 + 1, m - 1)[0]


def admits_ramifier(m: int) -> Witness | None:
    """Witness with the least ramifying n for modulus m (ties: least r).

    Every m >= 3 has the ramifier 2m - 1 (a1 = m - 1, a2 = 1, r = 2), so the
    least one lies in the closed-form bands n < 2m, and it is the first
    member of the first band that is not empty.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    for band in _low_bands(m, 2 * m - 1):
        if band:
            n = band.start
            a1 = n % m
            a2 = m - a1
            return Witness(m, n, a1, _least_inner(n - a2, a2, m), a2)
    return None


def admits_strong_ramifier(m: int, primes: PrimeTable) -> StrongWitness | None:
    """Strong witness with the least ramifying n for modulus m, if any.

    Every strong split is realised below 2m, so the bands suffice here too;
    the prime flags are the residues they admit.  A band lies inside one
    quotient q, so its residues a1 = n - q*m are one slice of the flags, and
    only the candidates that pass it test the flag of a2.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if primes.limit < m:
        raise ValueError(f"prime table reaches {primes.limit}, need >= {m}")
    flags = primes.flags
    for band in _low_bands(m, 2 * m - 1):
        q = band.start // m
        for n in compress(band, flags[band.start - q * m : band.stop - q * m]):
            a1 = n - q * m
            a2 = m - a1
            if flags[a2]:
                return StrongWitness(m, n, a1, _least_inner(n - a2, a2, m), a2)
    return None


def goldbach_partitions(m: int, primes: PrimeTable) -> list[tuple[int, int]]:
    """All unordered prime pairs (p1, p2), p1 <= p2, with p1 + p2 = m even."""
    if m % 2 or m < 4:
        raise ValueError("m must be even and >= 4")
    if primes.limit < m:
        raise ValueError(f"prime table reaches {primes.limit}, need >= {m}")
    plist = primes.primes
    return [
        (p, m - p)
        for p in plist[: bisect_right(plist, m // 2)]
        if primes.is_prime(m - p)
    ]


def goldbach_sweep(
    m_max: int, primes: PrimeTable
) -> tuple[list[int], list[tuple[int, int, int, int] | None]]:
    """(counts, certificates) for every even m in [4, m_max], in ascending m:
    the number of Goldbach partitions of m, len(goldbach_partitions(m,
    primes)), and the (n, p1, r, p2) of admits_strong_ramifier(m, primes),
    or None.

    With P the prime bitset over [0, m_max] and R its reverse, bit p of
    R >> (m_max - m) is bit m - p of P, so the word X = P & (R >> (m_max - m))
    has bit p set exactly when p and m - p are both prime.  The partitions
    are its set bits below m/2 + 1.  The least strong ramifier is read off
    the same word in the order of _low_bands: n = m/2 if bit m/2 is set;
    else n = p1 for the lowest bit p1 in (2m/3, m); else n = m + p1 for the
    lowest bit p1 in (m/3, m/2), where k = n - p2 = 2*p1 is its own witness.
    X is symmetric about m/2, and its bits m/3 and 2m/3 are clear (where 3
    divides the even m both are even, and m = 6 leaves 2m/3 = 4), so a pair
    whose p1 lies in (m/2, 2m/3), or in the band above 3m/2, has its p2 in
    (m/3, m/2), found first.
    """
    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    if primes.limit < m_max:
        raise ValueError(f"prime table reaches {primes.limit}, need >= {m_max}")
    P = bitset(primes.flags[: m_max + 1])
    R = bitset(primes.flags[m_max::-1])
    counts = []
    certs: list[tuple[int, int, int, int] | None] = []
    for m in range(4, m_max + 1, 2):
        X = P & (R >> (m_max - m))  # no bit above m: flags[0] is 0
        half = m // 2
        counts.append((X & ((1 << (half + 1)) - 1)).bit_count())
        if primes.flags[half]:  # bit m/2 of X
            certs.append((half, half, half + 1, half))
        elif low := X & ((1 << (m - 2 * m // 3)) - 1):
            # the lowest bit n in (2m/3, m) mirrors the highest in (0, m/3),
            # which one truncation and bit_length find without a shift
            p2 = low.bit_length() - 1
            n = m - p2
            certs.append((n, n, _least_inner(n - p2, p2, m), p2))
        elif X:  # no bit in (0, m/3), nor in its mirror: the lowest is p1
            p1 = (X & -X).bit_length() - 1
            certs.append((m + p1, p1, 2 * p1, m - p1))
        else:
            certs.append(None)
    return counts, certs


def goldbach_mismatch(
    m: int, count: int, cert: tuple[int, int, int, int] | None, primes: PrimeTable
) -> bool:
    """Whether even m's partition count and (n, p1, r, p2) certificate from
    goldbach_sweep fail the equivalence: they disagree on whether a prime
    pair exists, or the certificate fails a re-check against the definition
    (n = p1 mod m and n = p2 mod r as canonical residues, p1 + p2 = m,
    p2 < r < m, and both residues prime).

    The counts and certificates come from one word per m, so this re-check
    is the independent half of the sweep.
    """
    if cert is None:
        return count > 0
    n, p1, r, p2 = cert
    flags = primes.flags
    return not count or not (
        n % m == p1 and p1 + p2 == m and p2 < r < m and n % r == p2 and flags[p1] and flags[p2]
    )
