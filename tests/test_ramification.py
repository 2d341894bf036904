import math
import random
from itertools import compress, count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clirun import run_python

from ramify import ramification
from ramify.arith import PrimeTable, divisors_in_range, prime_table
from ramify.counting import _low_bands
from ramify.ramification import (
    StrongWitness,
    Witness,
    _least_inner,
    _witness_moduli,
    admits_ramifier,
    admits_strong_ramifier,
    character,
    goldbach_counts,
    goldbach_partitions,
    goldbach_sweep,
    index_of,
    ramifier_witnesses,
    strong_witnesses,
)


def naive_witness_rs(n, m):
    """Oracle: double loop straight off the definition."""
    return [r for r in range(2, m) if n % r == m - n % m]


_PRIMES_150 = prime_table(150)


@st.composite
def _serving_pairs(draw):
    """(m, n) over the serving range.  n up to 10^12 leaves the window of
    divisors_in_range below sqrt(n - a2); n below m^2/4 can leave it
    straddling or above sqrt(n - a2), where the scan visits cofactors."""
    m = draw(st.integers(2, 10**4))
    return m, draw(st.integers(2, 10**12) | st.integers(2, m * m // 4 + 2))


def naive_is_prime(v):
    return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))


class TestWitnesses:
    @pytest.mark.parametrize(
        "n, m, expected",
        [
            (7, 5, [(2, 4, 3)]),
            (10, 2, []),
            (10, 6, [(4, 4, 2)]),
            (17, 5, []),
            (2, 4, [(2, 3, 2)]),
            (19, 8, [(3, 7, 5)]),
        ],
    )
    def test_fixed_cases(self, n, m, expected):
        ws = ramifier_witnesses(n, m)
        assert [(w.a1, w.r, w.a2) for w in ws] == expected
        for w in ws:
            w.validate()

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            ramifier_witnesses(1, 5)
        with pytest.raises(ValueError):
            ramifier_witnesses(5, 1)

    def test_oracle_equivalence_exhaustive(self):
        # full agreement with the naive double loop
        for m in range(2, 51):
            for n in range(2, 5001):
                assert [w.r for w in ramifier_witnesses(n, m)] == naive_witness_rs(n, m)

    @given(st.integers(2, 120), st.integers(2, 100_000))
    @settings(max_examples=300)
    def test_oracle_equivalence_random(self, m, n):
        ws = ramifier_witnesses(n, m)
        assert [w.r for w in ws] == naive_witness_rs(n, m)
        for w in ws:
            w.validate()

    def test_witnesses_ascending_by_r(self):
        ws = ramifier_witnesses(27, 14)
        assert [w.r for w in ws] == sorted(w.r for w in ws)


class TestCharacter:
    @pytest.mark.parametrize("n, m, value", [(7, 5, 1), (17, 5, 0), (15, 5, 0)])
    def test_fixed_cases(self, n, m, value):
        assert character(n, m) == value

    def test_forced_zero_classes(self):
        for m in range(2, 51):
            for n in range(2, 2001):
                if n % m <= 1:
                    assert character(n, m) == 0

    def test_factorial_shift(self):
        for m in range(2, 9):
            f = math.factorial(m)
            for n in range(2, 501):
                assert character(n + f, m) == character(n, m)

    def test_huge_argument(self):
        # integers far beyond 64 bits must still evaluate exactly
        e = 3**46
        assert e > 2**64
        assert e % 47 == 1 and character(e, 47) == 0

    @given(_serving_pairs())
    @example((97, 10**12 + 7))  # a window below sqrt(k)
    @example((10**4, 9_999))  # a window straddling sqrt(k), ramifier
    @example((10**4, 13_000))  # a window above sqrt(k), non-ramifier
    @example((12, 6))  # zero difference
    @settings(max_examples=300)
    def test_matches_witness_existence(self, pair):
        m, n = pair
        assert character(n, m) == (1 if naive_witness_rs(n, m) else 0)


class TestIndex:
    def test_fixed_cases(self):
        rec = index_of(7, 5)
        assert (rec.index, rec.all_indices) == (4, (4,))
        rec = index_of(4, 5)
        assert (rec.index, rec.all_indices) == (3, (3,))
        assert index_of(15, 5) is None

    def test_index_is_minimum(self):
        rec = index_of(34, 12)  # witnesses r = 4 and r = 8
        assert rec.all_indices == (4, 8)
        assert rec.index == min(rec.all_indices)


class TestStrongWitnesses:
    def test_fixed_cases(self, primes_200):
        ws = strong_witnesses(19, 8, primes_200)
        assert [(w.p1, w.r, w.p2) for w in ws] == [(3, 7, 5)]
        ws = strong_witnesses(7, 5, primes_200)
        assert [(w.p1, w.r, w.p2) for w in ws] == [(2, 4, 3)]
        assert strong_witnesses(4, 5, primes_200) == []

    def test_table_too_small(self):
        with pytest.raises(ValueError):
            strong_witnesses(7, 5, prime_table(3))

    @given(st.integers(2, 150), st.integers(2, 3000))
    @settings(max_examples=200)
    def test_strong_subset_of_ordinary(self, m, n):
        strong = strong_witnesses(n, m, _PRIMES_150)
        ordinary = {(w.a1, w.r, w.a2) for w in ramifier_witnesses(n, m)}
        for sw in strong:
            sw.validate()
            assert (sw.p1, sw.r, sw.p2) in ordinary
            sw.as_witness().validate()


def _wide_pairs(rng, count):
    """(n, m) with m near 10**4, n near 10**12 and a window of more than
    m/2 candidates; every third one a strong ramifier of an even modulus."""
    pairs = []
    while len(pairs) < count:
        m = rng.randrange(9_000, 10**4 + 1)
        a1 = rng.randrange(m // 2, m)
        if len(pairs) % 3 == 2:
            m += m & 1
            a1 = rng.choice([p for p in range(m // 2, m) if naive_is_prime(p) and naive_is_prime(m - p)])
            r = rng.randrange(m - a1 + 1, m)
            start = m - a1 + r * (10**12 // r)
            n = next((n for n in range(start, start + r * m, r) if n % m == a1), None)
            if n is None:  # n = a1 (mod m) and n = m - a1 (mod r) has no solution
                continue
        else:
            n = m * rng.randrange(10**12 // m - 10**6, 10**12 // m) + a1
        pairs.append((n, m))
    return pairs


class TestSharedWindowScan:
    """character, index_of and strong_witnesses read one memoised scan per
    (n, m); a stale memo slot would hand one pair's answer to another."""

    def test_interleaved_requests_match_naive(self, primes_10k):
        rng = random.Random(41)
        wide = _wide_pairs(rng, 12)
        # pairs sharing n, or m and the residue n mod m, with other pairs
        pool = wide + [(n, m - 1) for n, m in wide[:3]] + [(n + m, m) for n, m in wide[:3]]
        pool += [(7, 5), (34, 12), (19, 8), (17, 5), (12, 6), (12, 7)]
        naive = {}
        for n, m in pool:
            rs = naive_witness_rs(n, m)
            a1, a2 = n % m, m - n % m
            strong = rs if naive_is_prime(a1) and naive_is_prime(a2) else []
            naive[n, m] = (rs, strong)
        assert any(strong for _, strong in naive.values())
        assert any(len(rs) > 1 for rs, _ in naive.values())
        calls = ("character", "index_of", "strong_witnesses")
        steps = 0
        for _ in range(200):
            a, b = rng.sample(pool, 2)
            # alternate two pairs, with repeats, calling the three in any order
            for n, m in (a, b, a, a, b, b, a):
                rs, strong = naive[n, m]
                name = rng.choice(calls)
                if name == "character":
                    assert character(n, m) == (1 if rs else 0), (n, m)
                elif name == "index_of":
                    rec = index_of(n, m)
                    if rs:
                        assert (rec.index, list(rec.all_indices)) == (rs[0], rs), (n, m)
                    else:
                        assert rec is None, (n, m)
                else:
                    ws = strong_witnesses(n, m, primes_10k)
                    assert [(w.p1, w.r, w.p2) for w in ws] == [
                        (n % m, r, m - n % m) for r in strong
                    ], (n, m)
                steps += 1
        assert steps == 1400

    def test_one_scan_per_request(self, monkeypatch, primes_10k):
        scans = []
        real = ramification.divisors_in_range
        monkeypatch.setattr(
            ramification, "divisors_in_range", lambda *a: scans.append(a) or real(*a)
        )
        _witness_moduli.cache_clear()
        for n, m in _wide_pairs(random.Random(5), 9) + [(34, 12), (19, 8)]:
            before = len(scans)
            if character(n, m):
                index_of(n, m)
            strong_witnesses(n, m, primes_10k)
            ramifier_witnesses(n, m)
            assert len(scans) - before == 1, (n, m)

    def test_non_prime_split_costs_no_scan(self, monkeypatch, primes_10k):
        scans = []
        monkeypatch.setattr(ramification, "divisors_in_range", lambda *a: scans.append(a))
        _witness_moduli.cache_clear()
        # 34 splits 12 as 10 + 2, and n = 9 (mod 9998) splits 9998 as 9 + 9989
        assert strong_witnesses(34, 12, primes_10k) == []
        assert strong_witnesses(10**12 + 9 - 10**12 % 9998, 9998, primes_10k) == []
        assert scans == []

    def test_memo_holds_tuples(self):
        assert _witness_moduli(34, 12) == (4, 8)
        assert isinstance(_witness_moduli(34, 12), tuple)
        assert _witness_moduli(17, 5) == ()

    def test_mutating_a_returned_list_changes_no_later_answer(self, primes_200):
        ws = ramifier_witnesses(34, 12)
        ws.clear()
        ws.append(Witness(m=12, n=34, a1=10, r=99, a2=2))
        assert [w.r for w in ramifier_witnesses(34, 12)] == [4, 8]
        assert index_of(34, 12).all_indices == (4, 8)
        sws = strong_witnesses(19, 8, primes_200)
        sws.pop()
        assert [w.r for w in strong_witnesses(19, 8, primes_200)] == [7]

    def test_errors_are_not_memoised(self, primes_200):
        assert character(7, 5) == 1
        with pytest.raises(ValueError, match="n must be >= 2"):
            character(1, 5)
        with pytest.raises(ValueError, match="n must be >= 2"):
            strong_witnesses(1, 5, primes_200)
        with pytest.raises(ValueError, match="m must be >= 2"):
            strong_witnesses(7, 1, primes_200)
        assert character(7, 5) == 1

    def test_table_size_is_checked_before_the_domain(self):
        with pytest.raises(ValueError, match="prime table reaches 3"):
            strong_witnesses(1, 5, prime_table(3))
        with pytest.raises(ValueError, match="prime table reaches 3"):
            strong_witnesses(7, 5, prime_table(3))


def brute_minimal(m, strong=False):
    """Oracle scan: every modulus with any (strong) ramifier has one below 2m."""
    for n in range(2, 2 * m + 2):
        a1 = n % m
        for r in naive_witness_rs(n, m):
            if strong and not (naive_is_prime(a1) and naive_is_prime(m - a1)):
                break
            return n, r
    return None


class TestAdmitsRamifier:
    def test_m2_empty(self):
        assert admits_ramifier(2) is None

    def test_m3(self):
        w = admits_ramifier(3)
        assert (w.n, w.a1, w.r, w.a2) == (5, 2, 2, 1)

    def test_m4(self):
        # r divides the zero difference, so n = 2 already ramifies mod 4
        w = admits_ramifier(4)
        assert (w.n, w.a1, w.r, w.a2) == (2, 2, 3, 2)

    def test_matches_brute_scan(self):
        # larger m only as spot values: brute_minimal costs O(m**2) per modulus
        for m in [*range(2, 80), 97, 128, 210, 997, 1000, 1024]:
            w = admits_ramifier(m)
            expected = brute_minimal(m)
            if expected is None:
                assert w is None
            else:
                w.validate()
                assert (w.n, w.r) == expected

    def test_frozen_witness_m997(self):
        w = admits_ramifier(997)
        assert (w.n, w.a1, w.r, w.a2) == (665, 665, 333, 332)

    @given(st.integers(3, 600))
    def test_least_n_is_least_ramifier(self, m):
        # every m >= 3 has the ramifier 2m - 1 (r = 2), so the scan ends
        least = next(n for n in count(2) if naive_witness_rs(n, m))
        assert admits_ramifier(m).n == least


def list_route_least(m, ok):
    """The least ramifier n < 2m of modulus m with ok(a1, a2), as
    (n, a1, r, a2), r read as [0] of the full window list, k = 0 too."""
    for band in _low_bands(m, 2 * m - 1):
        for n in band:
            a1, a2 = n % m, m - n % m
            if ok(a1, a2):
                return n, a1, divisors_in_range(abs(n - a2), a2 + 1, m - 1)[0], a2
    return None


class TestLeastInBands:
    def test_matches_list_route(self):
        # n = m/2 leaves k = 0, answered without its window list; every m <= 2000
        primes = prime_table(2000)
        strong = lambda a1, a2: primes.is_prime(a1) and primes.is_prime(a2)  # noqa: E731
        for m in range(2, 2001):
            w = admits_ramifier(m)
            assert (w and (w.n, w.a1, w.r, w.a2)) == list_route_least(m, lambda a1, a2: True), m
            sw = admits_strong_ramifier(m, primes)
            assert (sw and (sw.n, sw.p1, sw.r, sw.p2)) == list_route_least(m, strong), m

    def test_goldbach_certificates_match_list_route(self, primes_10k):
        # the flag walk over the prime table, on every even m of goldbach --m-max 10000
        strong = lambda a1, a2: primes_10k.flags[a1] and primes_10k.flags[a2]  # noqa: E731
        for m in range(4, 10_001, 2):
            sw = admits_strong_ramifier(m, primes_10k)
            assert (sw and (sw.n, sw.p1, sw.r, sw.p2)) == list_route_least(m, strong), m


def unscanned_band_ramifiers(m, flags, all_below):
    """(c, ns) for each band of _low_bands(m, 2m - 1): c = (q + 1)*m, so that
    n has a2 = c - n and k = n - a2 = 2n - c, and ns its ramifiers n whose
    residues both have flags[a] == 1.  For m >= all_below, ns keeps only the
    n that _least_inner answers without a scan, k <= 2*a2, that is
    n <= 3c/4; on the rest it returns divisors_in_range's own first divisor."""
    for band in _low_bands(m, 2 * m - 1):
        c = (band.start // m + 1) * m
        stop = band.stop if m < all_below else min(band.stop, 3 * c // 4 + 1)
        ns = compress(range(band.start, stop), flags[band.start - c + m : stop - c + m])
        yield c, [n for n in ns if flags[c - n]]


class TestLeastInner:
    """_least_inner(k, a2, m) against divisors_in_range(k, a2 + 1, m - 1)[0]."""

    def check(self, m, flags, all_below):
        for c, ns in unscanned_band_ramifiers(m, flags, all_below):
            got = [_least_inner(2 * n - c, c - n, m) for n in ns]
            assert got == [divisors_in_range(2 * n - c, c - n + 1, m - 1)[0] for n in ns], m

    def test_every_band_ramifier(self):
        # every n < 2m of every m <= 600; to 3,000 where it scans nothing
        ones = b"\x01" * 3000
        for m in range(2, 3001):
            self.check(m, ones, 601)

    def test_every_strong_band_ramifier(self):
        # both residues prime: every n of every m <= 3,000; to 2*10^4 where it
        # scans nothing
        flags = prime_table(20_000).flags
        for m in range(2, 20_001):
            self.check(m, flags, 3001)

    def test_fixed_cases(self):
        # (k, a2, m) of the ramifiers n = 5 of m = 10, and n = 9, 11 of m = 12
        assert _least_inner(0, 5, 10) == 6  # n = m/2: every candidate divides 0
        assert _least_inner(6, 3, 12) == 6  # k <= 2*a2: k itself
        assert _least_inner(10, 1, 12) == 2  # k > 2*a2: the least divisor in (1, 12)


class TestGoldbachSweep:
    def test_matches_partitions_and_list_route_to_2e4(self):
        primes = prime_table(20_000)
        strong = lambda a1, a2: primes.flags[a1] and primes.flags[a2]  # noqa: E731
        counts, certs = goldbach_sweep(20_000, primes)
        ms = range(4, 20_001, 2)
        assert len(counts) == len(certs) == len(ms)
        for m, p, c in zip(ms, counts, certs):
            assert p == len(goldbach_partitions(m, primes)), m
            assert c == list_route_least(m, strong), m
            sw = admits_strong_ramifier(m, primes)
            assert c == (sw and (sw.n, sw.p1, sw.r, sw.p2)), m
            StrongWitness(m, *c).validate()

    @pytest.mark.parametrize("m_max", [*range(4, 14), 199, 201])
    @pytest.mark.parametrize("over", [0, 13], ids=["sized", "longer-table"])
    def test_small_and_odd_m_max(self, m_max, over):
        # a table longer than m_max shows an R shifted from the table's end
        primes = prime_table(m_max + over)
        strong = lambda a1, a2: primes.flags[a1] and primes.flags[a2]  # noqa: E731
        ms = range(4, m_max + 1, 2)
        counts, certs = goldbach_sweep(m_max, primes)
        assert counts == [len(goldbach_partitions(m, primes)) for m in ms]
        assert certs == [list_route_least(m, strong) for m in ms]
        assert goldbach_counts(m_max, primes) == counts

    def test_sparse_flag_table(self):
        # flags that are not the primes: only 2, 3, 5, 7 and 13 set, so most
        # even m have no pair, and the rest show each of the three cases
        flags = bytes(p in (2, 3, 5, 7, 13) for p in range(41))
        table = PrimeTable(limit=40, flags=flags)
        ok = lambda a1, a2: flags[a1] and flags[a2]  # noqa: E731
        counts, certs = goldbach_sweep(40, table)
        ms = range(4, 41, 2)
        assert counts == [len(goldbach_partitions(m, table)) for m in ms]
        assert certs == [list_route_least(m, ok) for m in ms]
        assert certs[ms.index(10)] == (5, 5, 6, 5)  # n = m/2
        assert certs[ms.index(16)] == (13, 13, 5, 3)  # n = p1, r from a window scan
        assert certs[ms.index(12)] == (17, 5, 10, 7)  # n = m + p1
        assert certs[ms.index(22)] is None

    def test_domain_guards(self, primes_200):
        with pytest.raises(ValueError):
            goldbach_sweep(3, primes_200)
        with pytest.raises(ValueError):
            goldbach_sweep(201, primes_200)


class TestAdmitsStrongRamifier:
    @pytest.mark.parametrize(
        "m, expected",
        [
            (2, None),
            (3, None),
            (4, (2, 2, 3, 2)),
            (8, (11, 3, 6, 5)),
            (10, (5, 5, 6, 5)),
            (11, None),
            (12, (17, 5, 10, 7)),
        ],
    )
    def test_fixed_cases(self, primes_200, m, expected):
        sw = admits_strong_ramifier(m, primes_200)
        if expected is None:
            assert sw is None
        else:
            assert (sw.n, sw.p1, sw.r, sw.p2) == expected
            sw.validate()

    def test_matches_brute_scan(self, primes_200):
        for m in range(2, 150):
            sw = admits_strong_ramifier(m, primes_200)
            expected = brute_minimal(m, strong=True)
            if expected is None:
                assert sw is None, m
            else:
                assert sw is not None, m
                sw.validate()
                assert (sw.n, sw.r) == expected, m

    def test_table_too_small(self, primes_200):
        with pytest.raises(ValueError):
            admits_strong_ramifier(500, primes_200)


class TestGoldbachPartitions:
    def test_fixed_cases(self, primes_200):
        assert goldbach_partitions(10, primes_200) == [(3, 7), (5, 5)]
        assert goldbach_partitions(4, primes_200) == [(2, 2)]
        assert goldbach_partitions(8, primes_200) == [(3, 5)]

    def test_odd_rejected(self, primes_200):
        with pytest.raises(ValueError):
            goldbach_partitions(9, primes_200)

    def test_equivalence_with_strong_search(self, primes_200):
        for m in range(4, 201, 2):
            has_partition = bool(goldbach_partitions(m, primes_200))
            assert has_partition == (admits_strong_ramifier(m, primes_200) is not None)


class TestGoldbachCounts:
    def test_matches_partition_lists_to_1e4(self, primes_10k):
        counts = goldbach_counts(10_000, primes_10k)
        assert counts == [
            len(goldbach_partitions(m, primes_10k)) for m in range(4, 10_001, 2)
        ]

    def test_fixed_cases(self, primes_10k):
        # frozen from scripts/brute_force_fixtures.py
        frozen = {4: 1, 6: 1, 38: 2, 100: 6, 128: 3, 210: 19, 1000: 28, 9998: 99, 10000: 127}
        counts = goldbach_counts(10_000, primes_10k)
        assert {m: counts[m // 2 - 2] for m in frozen} == frozen

    @pytest.mark.parametrize("m_max", [4, 5, 6, 7, 199, 201])
    def test_odd_and_smallest_m_max(self, primes_10k, m_max):
        expected = [len(goldbach_partitions(m, primes_10k)) for m in range(4, m_max + 1, 2)]
        assert goldbach_counts(m_max, primes_10k) == expected
        # a table sized to m_max itself gives the same counts
        assert goldbach_counts(m_max, prime_table(m_max)) == expected

    def test_domain_guards(self, primes_200):
        with pytest.raises(ValueError):
            goldbach_counts(3, primes_200)
        with pytest.raises(ValueError):
            goldbach_counts(201, prime_table(200))


class TestQuadraticResidueNonRamifiers:
    def test_all_small_primes(self, primes_200):
        for p in primes_200.primes:
            if p > 50 or p == 2:
                continue
            for a in range(1, p):
                if pow(a, (p - 1) // 2, p) != 1:
                    continue
                for exponent in ((p - 1) // 2, p - 1):
                    e = a**exponent
                    assert e % p == 1
                    assert e < 2 or character(e, p) == 0


class TestWitnessValidation:
    def test_validate_rejects_corrupt_witness(self):
        with pytest.raises(ValueError):
            Witness(m=5, n=7, a1=2, r=3, a2=3).validate()

    def test_validate_rejects_composite_residue(self):
        # 14 = 4 (mod 10) and 14 = 6 (mod 8) split 10 as 4 + 6, which are not prime
        StrongWitness(m=10, n=14, p1=4, r=8, p2=6).as_witness().validate()
        with pytest.raises(ValueError, match="not prime"):
            StrongWitness(m=10, n=14, p1=4, r=8, p2=6).validate()

    def test_validate_rejects_under_optimize(self):
        # python -O strips assert statements; the checks must survive it
        code = (
            "from ramify.ramification import StrongWitness, Witness\n"
            "for bad in (lambda: Witness(m=5, n=7, a1=2, r=3, a2=3).validate(),\n"
            "            lambda: StrongWitness(m=10, n=14, p1=4, r=8, p2=6).validate()):\n"
            "    try:\n"
            "        bad()\n"
            "    except ValueError as e:\n"
            "        print('rejected:', e)\n"
        )
        proc = run_python("-O", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "rejected: a2 must be the canonical residue mod r",
            "rejected: residue 4 is not prime",
        ]
