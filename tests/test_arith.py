import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import TIERS, crossover, naive_is_prime, smooth_tier, window_candidates

from ramify import arith
from ramify.arith import (
    _SMOOTH_BASE,
    _SMOOTH_MAX,
    _smooth_lcm,
    DEFAULT_BUDGET_BITS,
    ResourceBudgetError,
    bitset,
    divisors_in_range,
    is_prime,
    prime_table,
)


#: The gate of every tier, one over 64 candidates
_CROSSOVERS = sorted({crossover(t - 1) for t in TIERS})

# flag strings of length 0-200, any length mod 8, all zeros and all ones among them
_flags = st.binary(max_size=200).map(lambda b: bytes(c & 1 for c in b)) | st.builds(
    lambda bit, k: bytes([bit]) * k, st.sampled_from([0, 1]), st.integers(0, 200)
)


class TestPrimeTable:
    def test_small_primes(self):
        assert prime_table(10).primes == (2, 3, 5, 7)

    def test_degenerate_limit(self):
        assert prime_table(1).primes == ()

    def test_count_to_100(self):
        assert len(prime_table(100).primes) == 25

    def test_boundary_bits(self):
        pt = prime_table(97)
        assert not pt.is_prime(0) and not pt.is_prime(1)
        assert pt.is_prime(2) and pt.is_prime(97)

    def test_agrees_with_trial_division(self):
        pt = prime_table(10_000)
        for p in range(10_001):
            assert pt.is_prime(p) == naive_is_prime(p), p
        # one flag byte, 0 or 1, per n in [0, limit]
        assert type(pt.flags) is bytes
        assert pt.flags == bytes(naive_is_prime(p) for p in range(10_001))

    def test_budget(self):
        # one byte per n in [0, limit], checked before anything is allocated
        with pytest.raises(ResourceBudgetError):
            prime_table(DEFAULT_BUDGET_BITS)
        with pytest.raises(ResourceBudgetError):
            prime_table(2**27)  # 8 * (2**27 + 1) bits; 2**27 - 1 is the largest that fits

    def test_out_of_range_query(self):
        with pytest.raises(ValueError):
            prime_table(10).is_prime(11)


class TestDivisorsInRange:
    def test_simple(self):
        assert divisors_in_range(8, 3, 5) == [4]

    def test_zero_divisible_by_all(self):
        assert divisors_in_range(0, 3, 5) == [3, 4, 5]

    def test_single_hit(self):
        assert divisors_in_range(14, 5, 13) == [7]

    def test_bad_window(self):
        with pytest.raises(ValueError):
            divisors_in_range(8, 6, 5)
        with pytest.raises(ValueError):
            divisors_in_range(8, 1, 5)

    def test_wide_window_uses_divisor_enumeration(self):
        # window far wider than 2*sqrt(k)
        assert divisors_in_range(36, 2, 10_000) == [2, 3, 4, 6, 9, 12, 18, 36]

    @given(st.integers(0, 10_000), st.integers(2, 200), st.integers(2, 200))
    @settings(max_examples=300)
    def test_matches_filter(self, k, bound1, bound2):
        lo, hi = min(bound1, bound2), max(bound1, bound2)
        expected = [r for r in range(lo, hi + 1) if k == 0 or k % r == 0]
        assert divisors_in_range(k, lo, hi) == expected

    # k up to 10**12, and multiples of 2, 3, 5 and 30 as edge cases
    _gate_k = st.integers(0, 10**12) | st.builds(
        operator.mul, st.integers(0, 10**12 // 30), st.sampled_from([2, 3, 5, 30])
    )
    # window widths hi - lo on both sides of each tier's gate, 64 to 248 candidates
    _width = st.integers(0, 10**4) | st.sampled_from(_CROSSOVERS).flatmap(
        lambda e: st.integers(e - 2, e + 2)
    )

    @given(_gate_k, st.integers(2, 10**6) | st.integers(2, _SMOOTH_MAX), _width)
    @example(10**12, 2, 10**4)  # a multiple of 30
    @example(7 * 11 * 13 * 10**6 + 1, 9_000, 179)  # tier 10240's gate, 179, plus one
    @example(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 300, 9_000)
    @settings(max_examples=300, deadline=None)
    def test_window_scan_across_the_gate(self, k, lo, width):
        hi = lo + width
        expected = [r for r in range(lo, hi + 1) if k == 0 or k % r == 0]
        assert divisors_in_range(k, lo, hi) == expected

    @given(
        st.integers((_SMOOTH_BASE + 2) ** 2, 2_000**2),
        st.sampled_from([1, 2, 3, 5, 30]),
        st.integers(2, 10**4),
        st.integers(1, 10**4),
    )
    @example(720_720, 1, 2, 1)  # 240 divisors, sqrt(k) = 848
    @example(600**2, 1, 2, 1)  # the root 600 lies in the window once
    @example(70_001, 1, 2, 70_000)  # the cofactor of d = 1, k itself, lies in the window
    @settings(max_examples=200, deadline=None)
    def test_divisor_pairs_across_the_gate(self, base, mult, lo, extra):
        # a window wider than 2*sqrt(k) reaches above sqrt(k), so the scan also
        # visits the d <= sqrt(k) whose cofactors lie in it, and sqrt(k) from
        # 66 to 2,000 puts those on both sides of every tier's gate
        k = base * mult
        hi = lo + 2 * math.isqrt(k) + extra
        expected = [r for r in range(lo, hi + 1) if k % r == 0]
        assert divisors_in_range(k, lo, hi) == expected

    @pytest.mark.parametrize("over", [0, 1])
    def test_scan_cap(self, monkeypatch, over):
        cap = 1_000
        monkeypatch.setattr(arith, "_SCAN_MAX", cap)
        top = cap + over
        capped = [
            (0, 2, top + 1),  # k = 0 lists the window's hi - lo + 1 candidates
            (10**12 + 1, _SMOOTH_MAX, _SMOOTH_MAX + top - 1),  # below sqrt(k): the window
            (top**2, 2, 10**9),  # up to k: every d in [1, sqrt(k)]
        ]
        for k, lo, hi in capped:
            if over:
                with pytest.raises(ResourceBudgetError, match="candidates"):
                    divisors_in_range(k, lo, hi)
            else:
                got = divisors_in_range(k, lo, hi)
                assert got == [r for r in range(lo, min(hi, k or hi) + 1) if k % r == 0]
        # the smooth route below _SMOOTH_MAX scans nothing, so the cap never applies
        k = 2**10 * 3**6 * 999_999_999_989
        assert divisors_in_range(k, 2, 5 * cap) == [
            r for r in range(2, 5 * cap + 1) if k % r == 0
        ]

    def test_scan_cap_counts_cofactors_only(self, monkeypatch):
        monkeypatch.setattr(arith, "_SCAN_MAX", 1_000)
        # a window above sqrt(k) = 10**4 scans d in [ceil(k/hi), k // lo] =
        # [500, 1000], 501 candidates, not the 10**4 d <= sqrt(k)
        assert divisors_in_range(10**8, 10**5, 2 * 10**5) == [
            r for r in range(10**5, 2 * 10**5 + 1) if 10**8 % r == 0
        ]

    @st.composite
    def _pair_windows(draw):
        """(k, lo, hi): k up to 10**6, many of them with many divisors or
        square, and windows below, straddling and above sqrt(k), their ends
        near sqrt(k), near a divisor or its cofactor, near k, or anywhere up
        to k + 2."""
        k = draw(
            st.integers(1, 10**6)
            | st.sampled_from([720_720, 997_920, 10**6, 2**19, 999**2, 65_536 * 15])
        )
        root = math.isqrt(k)
        d = draw(st.sampled_from([d for d in range(1, root + 1) if k % d == 0]))
        near = st.sampled_from([root, root + 1, d, k // d, k]).flatmap(
            lambda p: st.integers(p - 2, p + 2)
        )
        lo, hi = sorted(max(2, draw(near | st.integers(2, k + 2))) for _ in range(2))
        return k, lo, hi

    @given(_pair_windows())
    @example((36, 6, 10))  # k square, sqrt(k) = lo: its cofactor is itself
    @example((1_024 * 49, 224, 300))  # k square, sqrt(k) = lo, with cofactors above it
    @example((36, 2, 6))  # k square, sqrt(k) = hi
    @example((12, 2, 2))  # below sqrt(k), with the divisor 3 between hi and sqrt(k)
    @example((1_000, 30, 100))  # hi divides k: ceil(k/hi) = k // hi = 10
    @example((1_000, 40, 99))  # k % hi != 0: k // hi = 10 divides k, its cofactor 100 > hi
    @example((1_000, 50, 99))  # lo = k // d for d = k // lo = 20
    @example((40, 6, 9))  # lo = isqrt(k) = k // lo, which does not divide k
    @example((42, 6, 7))  # lo = isqrt(k), hi = k // lo
    @example((1_009, 500, 1_009))  # d = 1: its cofactor r = k = hi
    @example((5, 10, 20))  # k < lo: no candidate, an empty list
    @example((99, 100, 110))  # k = lo - 1: the least k that returns at once
    @example((1, 2, 10))  # k = 1
    @example((100, 100, 150))  # k = lo: k is its own divisor
    @settings(max_examples=200, deadline=None)
    def test_pair_range_matches_filter(self, window):
        k, lo, hi = window
        assert divisors_in_range(k, lo, hi) == [r for r in range(lo, hi + 1) if k % r == 0]


def _smooth(a, b, c, d):
    return 2**a * 3**b * 5**c * 7**d


def _next_prime_above(v):
    v += 1
    while not naive_is_prime(v):
        v += 1
    return v


class TestSmoothPart:
    """Wide windows with hi < 2**14 list the divisors of gcd(k, lcm(1..t)),
    t the least quarter-octave point above hi; these tests hold that route
    against the naive filter, which shares nothing with it."""

    def test_smooth_lcm_is_lcm(self):
        for t in TIERS:
            assert _smooth_lcm(t) == math.lcm(*range(1, t + 1)), t
        assert _SMOOTH_MAX == TIERS[-1] == 2**14

    # the tier points from 512, where windows start to be wide
    _tiers = [t for t in TIERS if t >= 512]
    # the least prime above each of them: it divides no lcm(1..t)
    _just_above = [_next_prime_above(t) for t in _tiers]
    # hi on both sides of each tier point, the last of them _SMOOTH_MAX
    _hi = st.builds(operator.add, st.sampled_from(_tiers), st.sampled_from([-1, 0, 1])) | (
        st.sampled_from(_just_above)
    )
    # smooth k, k times a prime above every window, k dividing lcm(1..2**14),
    # a multiple of a prime just above 2**j, which a window reaching it must find, and 0
    _k = st.one_of(
        st.builds(
            _smooth, st.integers(0, 40), st.integers(0, 25), st.integers(0, 17), st.integers(0, 14)
        ),
        st.builds(
            lambda a, b, p: _smooth(a, b, 0, 0) * p,
            st.integers(0, 20),
            st.integers(0, 12),
            st.sampled_from([1_000_003, 999_999_999_989]),
        ),
        st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 8_191, 16_381]), max_size=8).map(
            math.prod
        ),
        st.builds(operator.mul, st.sampled_from(_just_above), st.integers(1, 10**6)),
        st.just(0),
    )

    @given(_k, _hi, st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_naive_loop(self, k, hi, data):
        # K, the part of k the smooth route sees: gcd(k, lcm(1..t)) with t > hi
        if hi < _SMOOTH_MAX:
            gate, smooth = crossover(hi), math.gcd(k, _smooth_lcm(smooth_tier(hi)))
        else:
            gate, smooth = _CROSSOVERS[-1], k
        # widths hi - lo on both sides of the tier's gate and of 2*sqrt(K)
        edges = st.sampled_from([gate, 2 * math.isqrt(smooth)])
        width = data.draw(edges.flatmap(lambda e: st.integers(e - 2, e + 2)) | st.integers(0, hi))
        lo = hi - min(max(width, 0), hi - 2)
        assert divisors_in_range(k, lo, hi) == [r for r in range(lo, hi + 1) if k % r == 0]

    @pytest.mark.parametrize(
        "k, lo, hi",
        [
            (0, 2, 2**14),
            (2**40, 2, 2**14 - 1),
            (_smooth(10, 6, 4, 3) * 999_999_999_989, 2, 2**14 + 1),
            (_smooth(10, 6, 4, 3) * 16_411, 2, 16_411),  # the least prime above 2**14
        ],
    )
    def test_whole_windows(self, k, lo, hi):
        assert divisors_in_range(k, lo, hi) == [r for r in range(lo, hi + 1) if k % r == 0]

    # a prime above every window: k = K * _FAR keeps the smooth part K and puts
    # sqrt(k) above every window, so every wide window takes the smooth route
    _FAR = 999_999_999_989

    @pytest.mark.parametrize(
        "k",
        [
            16_381 * _FAR,  # a prime cofactor left after the trial division
            16_369 * _FAR,
            8_191 * 2**5 * 3**2 * 5,  # K = k, with a prime cofactor
            127**2 * _FAR,  # K = p**2: at p = 127 the cofactor is p*p, not yet prime
            2 * 3 * 127**2 * _FAR,
            131**2 * _FAR,  # 131**2 > 2**14, so K holds 131 once
            2**40,  # higher powers of 2 pass hi
            3**25 * 7**10 * _FAR,  # and of 3 and 7
            _FAR,  # K = 1
            127 * 131 * _FAR,  # two prime factors above 128
            16_369 * 16_381 * _FAR,
            8_191 * 16_381,
        ],
    )
    def test_factorisation_edges(self, k):
        # hi on both sides of every tier point from 512 to _SMOOTH_MAX
        for t in self._tiers:
            for hi in (t - 1, t, t + 1):
                for lo in (2, hi // 3):
                    expected = [r for r in range(lo, hi + 1) if k % r == 0]
                    assert divisors_in_range(k, lo, hi) == expected, (k, lo, hi)

    # smooth k, every prime factor <= 2**14 and so K = k once hi reaches its tier
    _smooth_k = st.lists(
        st.sampled_from([2, 3, 5, 7, 11, 13, 53, 127, 131, 199, 2_393, 8_191, 9_041, 16_381]),
        min_size=1,
        max_size=9,
    ).map(math.prod)

    @given(_smooth_k, st.integers(9_002, _SMOOTH_MAX - 1), st.integers(6_000, 9_000), st.none())
    # wide windows over k = K (2*3**5*5*53*9041 and 2**3*3**3*5**3*199*2393),
    # frozen from scripts/brute_force_fixtures.py
    @example(
        1_164_390_390, 9_998, 8_997,
        [1215, 1431, 1590, 2385, 2430, 2862, 4293, 4770, 7155, 8586, 9041],
    )
    @example(
        12_857_589_000, 8_191, 6_691,
        [1500, 1592, 1791, 1800, 1990, 2250, 2388, 2393, 2700, 2985, 3000, 3375, 3582,
         3980, 4500, 4776, 4786, 4975, 5373, 5400, 5970, 6750, 7164, 7179, 7960],
    )
    @settings(max_examples=100, deadline=None)
    def test_smooth_k_on_wide_windows(self, k, hi, width, frozen):
        lo = hi - width
        got = divisors_in_range(k, lo, hi)
        assert got == [r for r in range(lo, hi + 1) if k % r == 0]
        if frozen is not None:
            assert got == frozen

    def test_point_query_replay(self):
        # 2,000 windows drawn as the point-query benchmark draws them, n
        # log-uniform to 10**12 and m to 10**4, kept when their scan would
        # visit more candidates than their tier's gate below _SMOOTH_MAX: the d
        # in [min(lo, ceil(k/hi)), min(hi, k // lo, sqrt(k))]
        rng = random.Random(2024)

        def log_uniform(top):
            return max(2, int(math.exp(rng.uniform(math.log(2), math.log(top + 1)))))

        kept = 0
        while kept < 2_000:
            n, m = log_uniform(10**12), log_uniform(10**4)
            a1 = n % m
            a2 = m - a1
            k, lo, hi = abs(n - a2), a2 + 1, m - 1
            if a1 <= 1 or k == 0 or hi >= _SMOOTH_MAX:
                continue
            if window_candidates(k, lo, hi) <= crossover(hi):
                continue
            kept += 1
            expected = [r for r in range(lo, hi + 1) if k % r == 0]
            assert divisors_in_range(k, lo, hi) == expected, (n, m)


class TestRoutes:
    """The edges of the smooth route: each tier point, each tier's gate and
    the smooth part K next to lo.  Each case is held against the naive
    filter, and the route it takes is read off the calls it makes."""

    # a prime above every window: k = K * _FAR keeps the smooth part K and
    # puts sqrt(k) above every window, so a window's count is its width
    _FAR = 999_999_999_989

    @staticmethod
    def _record(monkeypatch, name):
        calls = []
        inner = getattr(arith, name)

        def recorded(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(arith, name, recorded)
        return calls

    @pytest.mark.parametrize("t", TIERS)
    def test_tier_points(self, monkeypatch, t):
        # hi = t - 1 takes tier t, and hi = t the next one up; from 2**14 no
        # tier is asked for.  k is divided by every r in the window, which a
        # tier at or below a prime power in it would miss
        tiers = self._record(monkeypatch, "_smooth_lcm")
        for hi in (t - 1, t, t + 1):
            lo = max(2, hi - _CROSSOVERS[-1])
            k = math.lcm(*range(lo, hi + 1)) * self._FAR
            assert divisors_in_range(k, lo, hi) == list(range(lo, hi + 1)), hi
            wide = hi - lo + 1 > _SMOOTH_BASE and hi < _SMOOTH_MAX
            assert tiers == ([(smooth_tier(hi),)] if wide else []), hi
            tiers.clear()

    @pytest.mark.parametrize("t", TIERS)
    def test_gate(self, monkeypatch, t):
        # a window of its tier's gate in candidates, or fewer, is scanned; one
        # more lists the divisors of its smooth part
        listed = self._record(monkeypatch, "_smooth_divisors")
        for hi in (t - 1, t, t + 1):
            if hi >= _SMOOTH_MAX:
                continue
            gate = crossover(hi)
            for count in (gate - 1, gate, gate + 1):
                lo = hi - count + 1
                k = math.lcm(*range(lo, lo + 8)) * self._FAR
                expected = [r for r in range(lo, hi + 1) if k % r == 0]
                assert divisors_in_range(k, lo, hi) == expected, (hi, count)
                assert len(listed) == (count > gate), (hi, count)
                listed.clear()

    @pytest.mark.parametrize("t", TIERS)
    def test_smooth_part_next_to_lo(self, t):
        # K = lo - 1 has no divisor in the window; K = lo and K = lo + 1 are
        # their own one witness
        for hi in (t - 1, t, t + 1):
            if hi >= _SMOOTH_MAX:
                continue
            lo = hi - crossover(hi)  # one candidate over the gate
            for K in (lo - 1, lo, lo + 1):
                k = K * self._FAR
                expected = [r for r in range(lo, hi + 1) if k % r == 0]
                assert expected == [K] * (K >= lo)
                assert divisors_in_range(k, lo, hi) == expected, (hi, K)

    def test_random_windows_in_every_tier(self):
        # per tier, windows ending in it, k up to 10**18, log-uniform, smooth,
        # a smooth part times a far prime, and 0
        rng = random.Random(27)
        smooth = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 127, 131, 8_191, 16_381]
        for below, t in zip([2] + TIERS, TIERS + [2**14 + 64]):
            for _ in range(40):
                hi = rng.randrange(below, t)
                lo = rng.choice([rng.randint(2, hi), max(2, hi - rng.randint(0, 300))])
                k = rng.choice([
                    0,
                    rng.randint(1, 10**18),
                    int(math.exp(rng.uniform(0, math.log(10**18)))),
                    math.prod(rng.choices(smooth, k=rng.randint(1, 8))),
                    math.prod(rng.choices(smooth, k=rng.randint(1, 4))) * self._FAR,
                ])
                expected = [r for r in range(lo, hi + 1) if k == 0 or k % r == 0]
                assert divisors_in_range(k, lo, hi) == expected, (k, lo, hi)


class TestIsPrime:
    def test_matches_prime_table(self):
        # the scan below 66**2 = 4,356 and the smooth route above it
        limit = 2**20
        assert bytes(map(is_prime, range(limit + 1))) == prime_table(limit).flags

    def test_matches_a_segmented_sieve_from_2_28(self):
        # from 2**28 the gcd rules out a prime factor below 2**14 and the
        # scan settles the rest; the sieve strikes the multiples of every
        # prime up to the square root of the window's top
        lo, hi = 2**28 - 2**12, 2**28 + 2**12
        flags = bytearray([1]) * (hi - lo + 1)
        for q in prime_table(math.isqrt(hi)).primes:
            first = -(-lo // q) * q
            flags[first - lo :: q] = bytes(len(range(first, hi + 1, q)))
        assert bytes(map(is_prime, range(lo, hi + 1))) == flags

    @pytest.mark.parametrize(
        "p",
        [
            561, 1_105, 1_729, 41_041, 825_265, 321_197_185,  # Carmichael numbers
            3_215_031_751,  # strong pseudoprime to the bases 2, 3, 5 and 7
            # above 2**28: the plain scan of [2, isqrt(p)]
            16_411**2, 16_411 * 16_417, 2**31 - 1,
        ],
    )
    def test_against_trial_division(self, p):
        assert is_prime(p) == naive_is_prime(p)

    def test_scan_cap(self, monkeypatch):
        # only a window that reaches 2**14 takes the capped scan, so the cap
        # is set above that, and only a p with no prime factor below 2**14
        # reaches the scan.  The window [2, 2**15 + 1] of the prime 1073807369
        # holds 2**15 candidates, at the cap; that of the prime 1073872903,
        # just above (2**15 + 2)**2, holds one more.
        monkeypatch.setattr(arith, "_SCAN_MAX", 2**15)
        assert math.isqrt(1073807369) == 2**15 + 1
        assert is_prime(1073807369) is True
        with pytest.raises(ResourceBudgetError, match=r"\[2, 32770\] needs 32769 candidates"):
            is_prime(1073872903)

    def test_small_factor_answers_under_the_cap(self, monkeypatch):
        # 2**40 and 3 * 5 * 16411**3 would scan 2**20 and about 8.1 * 10**6
        # candidates; one gcd answers each before the scan, whatever the cap
        monkeypatch.setattr(arith, "_SCAN_MAX", 2**15)
        assert is_prime(2**40) is False
        assert is_prime(3 * 5 * 16_411**3) is False
        assert is_prime(16_411 * 16_417) is False  # no factor below 2**14: the scan


class TestBitset:
    @given(_flags)
    @example(b"")
    @example(b"\x01" * 8)
    @example(b"\x00" * 9)
    def test_bit_n_is_flag_n(self, flags):
        assert bitset(flags) == sum(1 << n for n, f in enumerate(flags) if f)

    @given(_flags.filter(len), st.integers(0, 199))
    @example(b"\x01" * 9, 8)
    def test_reversed_slice(self, flags, k):
        # goldbach_sweep reads the prime table backwards from m_max:
        # bit k - n of the reversed slice is flags[n]
        k %= len(flags)
        assert bitset(flags[k::-1]) == sum(1 << (k - n) for n in range(k + 1) if flags[n])
