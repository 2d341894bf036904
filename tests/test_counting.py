import math
import tracemalloc
from array import array
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramify.arith import DEFAULT_BUDGET_BITS, ResourceBudgetError
from ramify.counting import (
    _MULTI_BITS_PER_PAIR,
    _ROW_BITS_PER_N,
    _SWEEP_BITS_PER_N,
    _field_type,
    _low_bands,
    _low_moduli,
    _progressions,
    build_sieve,
    count_ramifiers,
    multi_modulus_ramifiers,
    ramifier_counts,
    rows,
    threshold,
)
from ramify.ramification import character, ramifier_witnesses


def naive_is_ramifier(n, m):
    return any(n % r == m - n % m for r in range(2, m))


def naive_set(m, x):
    return [n for n in range(2, x + 1) if naive_is_ramifier(n, m)]


def naive_multi(x):
    out = []
    for n in range(2, x + 1):
        ms = [m for m in range(2, x + 1) if naive_is_ramifier(n, m)]
        if len(ms) >= 2:
            out.append((n, ms))
    return out


def crt_solve(a1, m, a2, r):
    """(least, period) of n = a1 (mod m), n = a2 (mod r): the least
    non-negative solution and lcm(m, r), or None when gcd(m, r) does not
    divide a1 - a2."""
    g = math.gcd(m, r)
    if (a1 - a2) % g:
        return None
    r_g = r // g
    return a1 + m * ((a2 - a1) // g * pow(m // g, -1, r_g) % r_g), m * r_g


def pairwise_progressions(m):
    """(start, period) of every solvable (a1, r) pair, one crt_solve per pair:
    an independent route to build_sieve, which walks each r's progressions
    by the quotient of their least member."""
    out = []
    for a1 in range(1, m):
        a2 = m - a1
        for r in range(a2 + 1, m):
            sol = crt_solve(a1, m, a2, r)
            if sol is not None:
                least, period = sol
                out.append((least if least >= 2 else least + period, period))
    return out


def pairwise_flags(progressions, x):
    """The sieve flags of those progressions over [0, x], marked one n at a time."""
    flags = bytearray(x + 1)
    for n, period in progressions:
        while n <= x:
            flags[n] = 1
            n += period
    return bytes(flags)


def list_sweep(x, m_lo, m_hi):
    """The sweep before its bands were packed: one list M[k] = 2*L[k] + k, so
    that n of band q ramifies iff M[2n - c] > c, c = (q + 1)*m, compared one n
    at a time.  Yields (m, ramifier ranges below 2m, ramifiers from 2m)."""
    M = list(range(x + 1))
    for m in range(2, m_hi + 1):
        if m >= m_lo:
            high = []
            for c in range(3 * m, x + m - 1, m):  # each q >= 2 with q*m + 2 <= x
                ns = range(c - m + 2, min(c, x + 1))
                ks = M[2 * ns.start - c : 2 * ns.stop - c : 2]
                high += [n for n, k in zip(ns, ks) if k > c]
            yield m, _low_bands(m, x), high
        M[m::m] = range(3 * m, x + 2 * m + 1, m)


def list_sweep_counts(x, m_lo, m_hi):
    return [sum(map(len, low)) + len(high) for _, low, high in list_sweep(x, m_lo, m_hi)]


def list_sweep_multi(x):
    moduli = [[] for _ in range(x + 1)]
    for m, low, high in list_sweep(x, 2, x):
        for n in [n for ns in low for n in ns] + high:
            moduli[n].append(m)
    return [(n, ms) for n, ms in enumerate(moduli) if len(ms) >= 2]


#: ramifier_counts(240, 2, 240), frozen from the naive loop of
#: scripts/brute_force_fixtures.py ("ramifier_counts_x240").
COUNTS_X240 = [
    0, 40, 80, 68, 96, 80, 110, 78, 106, 87, 117, 86, 113, 82, 117, 95, 113, 95, 117, 84,
    116, 92, 124, 88, 114, 94, 118, 95, 121, 98, 121, 90, 120, 94, 123, 98, 119, 94, 125,
    103, 121, 99, 121, 96, 121, 99, 128, 103, 126, 99, 123, 99, 122, 101, 123, 102, 122,
    106, 127, 107, 125, 104, 125, 101, 121, 100, 121, 96, 119, 96, 119, 96, 119, 95, 121,
    99, 124, 102, 127, 104, 126, 102, 124, 101, 124, 99, 122, 98, 121, 99, 120, 97, 119, 98,
    118, 99, 117, 98, 114, 100, 111, 102, 109, 103, 107, 106, 106, 108, 109, 109, 111, 112,
    112, 114, 115, 115, 117, 118, 118, 119, 118, 116, 116, 115, 113, 113, 112, 110, 110,
    109, 107, 107, 106, 104, 104, 103, 101, 101, 100, 98, 98, 97, 95, 95, 94, 92, 92, 91,
    89, 89, 88, 86, 86, 85, 83, 83, 82, 80, 80, 79, 78, 77, 77, 74, 75, 73, 72, 71, 71, 68,
    69, 67, 66, 65, 65, 62, 63, 61, 60, 60, 61, 60, 62, 61, 62, 62, 63, 62, 64, 63, 64, 64,
    65, 64, 66, 65, 66, 66, 67, 66, 68, 67, 68, 68, 69, 68, 70, 69, 70, 70, 71, 70, 72, 71,
    72, 72, 73, 72, 74, 73, 74, 74, 75, 74, 76, 75, 76, 76, 77, 76, 78, 77, 78, 78, 79, 78,
    80, 79, 80,
]


class TestCrtSolve:
    """The per-pair solver behind pairwise_progressions, the sieve's oracle."""

    def test_example(self):
        assert crt_solve(3, 8, 5, 7) == (19, 56)

    def test_unsolvable_parity(self):
        assert crt_solve(2, 4, 1, 2) is None

    def test_zero_residues(self):
        assert crt_solve(0, 5, 0, 3) == (0, 15)

    @given(st.integers(1, 60), st.integers(1, 60), st.data())
    @settings(max_examples=200)
    def test_least_solution_matches_scan(self, m, r, data):
        a1 = data.draw(st.integers(0, m - 1))
        a2 = data.draw(st.integers(0, r - 1))
        sol = crt_solve(a1, m, a2, r)
        period = m * r // math.gcd(m, r)
        scan = [n for n in range(period) if n % m == a1 and n % r == a2]
        if sol is None:
            assert scan == []
        else:
            assert sol[1] == period
            assert scan and scan[0] == sol[0]


class TestBuildSieve:
    def test_m5_x20(self):
        assert build_sieve(5, 20).ramifiers() == [4, 7, 8, 9, 18, 19]

    def test_m2_all_clear(self):
        s = build_sieve(2, 100)
        assert s.ramifiers() == [] and s.count() == 0

    def test_m3_x10(self):
        assert build_sieve(3, 10).ramifiers() == [5]

    def test_matches_naive_grid(self):
        for m in range(2, 41):
            for x in (2, 23, 137):
                assert build_sieve(m, x).ramifiers() == naive_set(m, x), (m, x)

    def test_matches_naive_below_and_around_m(self):
        # x below m skips the splits with a2 < m - x, which cannot mark n <= x
        for m in range(2, 120):
            for x in {2, 3, m // 3 + 2, m // 2, m - 1, m, m + 5}:
                if x >= 2:
                    assert build_sieve(m, x).ramifiers() == naive_set(m, x), (m, x)

    @given(st.integers(2, 60), st.integers(2, 900))
    @example(5, 3)  # below the first progression start, n0 = 4
    @example(60, 29)  # below the first progression start, n0 = m/2
    @example(5, 15)  # one period, lcm(5, 3)
    @example(12, 24)  # one period, lcm(12, 8)
    @example(59, 885)  # one period, lcm(59, 15)
    @settings(max_examples=150, deadline=None)  # the naive oracle sets the pace
    def test_matches_naive_random(self, m, x):
        sieve = build_sieve(m, x)
        expected = naive_set(m, x)
        assert [n for n in range(2, x + 1) if sieve.bit(n)] == expected
        assert sieve.ramifiers() == expected
        assert sieve.count() == len(expected)
        assert sieve.flags.find(1) == (expected[0] if expected else -1)
        # one flag byte, 0 or 1, per n in [0, x]; 0 and 1 never ramify
        assert type(sieve.flags) is bytes
        hits = set(expected)
        assert sieve.flags == bytes(n in hits for n in range(x + 1))

    def test_matches_pairwise_route(self):
        # x around m, where the first inner moduli r <= m - x drop out, and
        # around the periods of r = m - 1 and m - 2, where a progression's
        # first repeat enters [0, x]; the flags at x are a prefix of those at
        # a larger x, so each m marks its progressions once
        for m in range(2, 260):
            xs = {2, 3, 600, 601, 607, m // 2, 2 * m // 3, m - 1, m, m + 1, 2 * m - 1}
            for r in (m - 1, m - 2):
                if r >= 2:
                    period = m * r // math.gcd(m, r)
                    xs |= {period - 1, period, period + 1}
            xs = sorted(x for x in xs if x >= 2)
            expected = pairwise_flags(pairwise_progressions(m), xs[-1])
            for x in xs:
                assert build_sieve(m, x).flags == expected[: x + 1], (m, x)

    @pytest.mark.parametrize("m", [3, 20, 80, 200, 450, 950, 953, 997, 1000])
    def test_matches_pairwise_route_at_1e5(self, m):
        # moduli from every band the counting benchmark draws from; 953 and
        # 997 are prime, 1000 = 2**3 * 5**3 has many even inner moduli
        expected = pairwise_flags(pairwise_progressions(m), 10**5)
        assert build_sieve(m, 10**5).flags == expected

    @pytest.mark.parametrize("m", [10**5 + 3, 2**17, 3 * 10**5])
    def test_matches_character_near_x_for_large_moduli(self, m):
        # the last 700 n below, just past and well past m
        for x in (m // 2, 2 * m // 3 + 5, m + 500):
            flags = build_sieve(m, x).flags
            assert list(flags[-700:]) == [character(n, m) for n in range(x - 699, x + 1)], x

    #: count_ramifiers(m, 10**5) as (count, radius, has_ramifiers), frozen
    #: from the sieve that walked the split residues a2 instead of the quotients
    COUNTS_1E5 = {
        23: (38440, 99977, True),
        77: (37371, 99922, True),
        211: (34899, 99788, True),
        457: (33056, 99541, True),
        953: (35820, 99047, True),
        997: (35890, 99001, True),
        1000: (44942, 98999, True),
    }

    @pytest.mark.parametrize("m", sorted(COUNTS_1E5))
    def test_frozen_counts_at_1e5(self, m):
        s = count_ramifiers(m, 10**5)
        assert (s.count, s.radius, s.has_ramifiers) == self.COUNTS_1E5[m]

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            build_sieve(5, 10_000, budget_bits=100)

    def test_budget_charges_a_byte_per_n(self):
        build_sieve(7, 1000, budget_bits=8 * 1001)
        with pytest.raises(ResourceBudgetError):
            build_sieve(7, 1000, budget_bits=8 * 1001 - 1)

    def test_bit_range_guard(self):
        with pytest.raises(ValueError):
            build_sieve(5, 20).bit(21)


class TestProgressions:
    @pytest.mark.parametrize("m", range(2, 41))
    def test_expand_to_the_witness_pairs(self, m):
        # every member of every progression, as a pair (n, r), against the
        # window scan of each n <= x; x at the edges of the bands n < m and
        # n < 2m, where progressions start and first repeat
        for x in sorted({2, m - 1, m, 2 * m - 1, 2 * m, 400} - {1}):
            pairs, rs = [], []
            for r, period, starts in _progressions(m, x):
                assert period == math.lcm(m, r)
                rs.append(r)
                for n0 in starts:
                    assert 2 <= n0 <= x and n0 - period < 2, (x, r, n0)  # the least member
                    pairs += [(n, r) for n in range(n0, x + 1, period)]
            assert rs == sorted(set(rs)), x
            assert len(pairs) == len(set(pairs)), x  # no pair twice
            expected = {(n, w.r) for n in range(2, x + 1) for w in ramifier_witnesses(n, m)}
            assert set(pairs) == expected, x


class TestCountSummary:
    def test_m5_x20(self):
        s = count_ramifiers(5, 20)
        assert s.count == 6
        assert s.radius == 14
        assert s.has_ramifiers
        assert s.upper_main == pytest.approx(14.1386, abs=1e-3)
        assert s.lower_main == pytest.approx(12.0)

    def test_empty_set(self):
        s = count_ramifiers(2, 100)
        assert s.count == 0 and s.radius == 0 and not s.has_ramifiers

    def test_monotone_in_x(self):
        for m in (3, 5, 12):
            counts = [count_ramifiers(m, x).count for x in range(2, 200, 7)]
            assert counts == sorted(counts)

    @given(st.integers(2, 50), st.integers(2, 400))
    @settings(max_examples=150)
    def test_invariants(self, m, x):
        s = count_ramifiers(m, x)
        assert 0 <= s.count <= x - 1
        # multiples of m and the class n = 1 (mod m) are never marked
        assert s.count <= x - 1 - max(0, x // m - 1)
        assert s.radius <= max(x - m, m - 2)
        if s.has_ramifiers:
            ns = naive_set(m, x)
            assert s.radius == max(abs(n - m) for n in ns)


class TestFastCounts:
    def test_counts_match_sieves(self):
        for x in (2, 3, 17, 60, 250):
            counts = ramifier_counts(x, 2, x)
            for m in range(2, x + 1):
                assert counts[m - 2] == build_sieve(m, x).count(), (m, x)

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=80)
    def test_double_sum_matches_oracle(self, naive_sets_200, x, data):
        m_lo = data.draw(st.integers(2, x))
        m_hi = data.draw(st.integers(m_lo, x))
        expected = sum(bisect_right(naive_sets_200[m], x) for m in range(m_lo, m_hi + 1))
        assert sum(ramifier_counts(x, m_lo, m_hi)) == expected

    @pytest.mark.parametrize("x, m_lo, m_hi", [(97, 3, 97), (160, 13, 40), (160, 50, 50), (151, 75, 151)])
    def test_counts_from_m_lo_above_2(self, naive_sets_200, x, m_lo, m_hi):
        counts = ramifier_counts(x, m_lo, m_hi)
        moduli = range(m_lo, m_hi + 1)
        assert counts == [build_sieve(m, x).count() for m in moduli]
        assert counts == [bisect_right(naive_sets_200[m], x) for m in moduli]

    @pytest.mark.parametrize("m", [17, 73, 211, 457, 953])
    def test_single_cell_matches_sieve_at_1e5(self, m):
        # one modulus from each band the counting benchmark draws from
        assert ramifier_counts(10**5, m, m) == [count_ramifiers(m, 10**5).count]

    def test_example_sum(self):
        assert sum(ramifier_counts(20, 2, 5)) == 16

    def test_golden_value_x100(self):
        # frozen after oracle summation over m in [2, 100]
        assert sum(ramifier_counts(100, 2, 100)) == 3694

    def test_m2_alone(self):
        assert sum(ramifier_counts(2, 2, 2)) == 0

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ramifier_counts(10, 5, 11)

    def test_budget_covers_the_traced_peak(self):
        # the charge per n covers the peak tracemalloc measures for the sweep
        x = 3_000
        tracemalloc.start()
        try:
            ramifier_counts(x, 2, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * peak <= _SWEEP_BITS_PER_N * (x + 1)
        with pytest.raises(ResourceBudgetError):
            ramifier_counts(DEFAULT_BUDGET_BITS // _SWEEP_BITS_PER_N, 2, 2)


class TestPackedSweep:
    """The packed band tests against the list sweep they replaced, the naive
    definition and the sieve route."""

    def test_counts_match_list_sweep(self, naive_sets_200):
        for x in range(2, 301):
            expected = list_sweep_counts(x, 2, x)
            if x <= 200:
                assert expected == [bisect_right(naive_sets_200[m], x) for m in range(2, x + 1)]
            for m_lo in {2, 3, x // 3, x // 2, x}:
                if 2 <= m_lo <= x:
                    assert ramifier_counts(x, m_lo, x) == expected[m_lo - 2 :], (x, m_lo)

    def test_multi_matches_list_sweep(self, naive_sets_200):
        # each n's moduli up to 200 off the naive sets; a prefix serves smaller x
        hits = {m: set(ns) for m, ns in naive_sets_200.items()}
        naive_moduli = {n: [m for m in range(2, 201) if n in hits[m]] for n in range(2, 201)}
        for x in range(2, 301):
            found = multi_modulus_ramifiers(x)
            assert found == list_sweep_multi(x), x
            if x <= 200:
                expected = [(n, [m for m in naive_moduli[n] if m <= x]) for n in range(2, x + 1)]
                assert found == [(n, ms) for n, ms in expected if len(ms) >= 2], x

    def test_frozen_counts_x240(self):
        assert ramifier_counts(240, 2, 240) == COUNTS_X240
        assert ramifier_counts(240, 120, 240) == COUNTS_X240[118:]

    def test_field_width_switch(self):
        # the guard bit 2**(b - 1) must exceed x
        assert [array(_field_type(x)).itemsize for x in (2, 2**15 - 1, 2**15, 2**19)] == [2, 2, 4, 4]

    @pytest.mark.parametrize(
        "x, m, last",
        [
            (2**15 - 1, 3, 1), (2**15 - 1, 4, 2), (2**15 - 1, 5, 1), (2**15 - 1, 127, 125),
            (2**15 - 1, 500, 266), (2**15 - 1, 997, 862),
            (2**15, 3, 1), (2**15, 4, 2), (2**15, 43, 1), (2**15, 99, 97), (2**15, 254, 1),
            (2**15, 500, 267), (2**15, 993, 991),
            (10**5, 3, 1), (10**5, 4, 2), (10**5, 7, 4), (10**5, 625, 623), (10**5, 953, 887),
        ],
    )
    def test_single_cell_matches_sieve_at_the_width_switch(self, x, m, last):
        # the last band of m holds `last` of its m - 2 residues: one, fewer
        # than m - 2, or all of them
        assert min(m - 2, (x - 2) % m + 1) == last
        assert ramifier_counts(x, m, m) == [count_ramifiers(m, x).count]
        assert next(rows(x, m, m)).flags == build_sieve(m, x).flags


class TestRows:
    """The flag rows read off the packed sweep against the progression
    sieve, byte for byte."""

    @pytest.mark.parametrize("x", [2, 3, 4, 5, 7, 10, 37, 100, 3121, 2**15 - 1, 2**15])
    def test_every_m_to_120(self, x):
        got = list(rows(x, 2, 120))
        assert [s.m for s in got] == list(range(2, 121))
        for s in got:
            assert s == build_sieve(s.m, x), s.m
            assert type(s.flags) is bytes

    def test_moduli_beyond_x(self):
        # m > x/2 has no band q >= 2, and m > x holds only the n < m bands
        for x in range(2, 101):
            for s in rows(x, 2, 3 * x + 5):
                assert s == build_sieve(s.m, x), (x, s.m)

    @given(st.integers(2, 5000), st.integers(2, 300), st.integers(0, 300))
    @example(2**15, 2, 200)  # 32-bit fields, both placements
    @example(2**15 - 1, 180, 0)  # 16-bit fields, one modulus placed band by band
    @settings(max_examples=60, deadline=None)
    def test_random_ranges(self, x, m_lo, extra):
        got = list(rows(x, m_lo, m_lo + extra))
        assert [s.m for s in got] == list(range(m_lo, m_lo + extra + 1))
        for s in got:
            assert s == build_sieve(s.m, x), s.m

    def test_budget_covers_the_traced_peak(self):
        # the charge per n covers the peak tracemalloc measures, with 16-bit
        # fields and with 32-bit ones
        for x in (3_000, 40_000):
            tracemalloc.start()
            try:
                for _ in rows(x, 2, 60):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 8 * peak <= _ROW_BITS_PER_N * (x + 1), x
        with pytest.raises(ResourceBudgetError):
            next(rows(DEFAULT_BUDGET_BITS // _ROW_BITS_PER_N, 2, 2))

    def test_domain(self):
        with pytest.raises(ValueError):
            next(rows(1, 2, 5))
        with pytest.raises(ValueError):
            next(rows(10, 1, 5))
        assert list(rows(10, 6, 5)) == []


class TestMultiModulus:
    def test_x7(self):
        assert multi_modulus_ramifiers(7) == [
            (3, [4, 6]),
            (5, [3, 6, 7]),
            (7, [4, 5]),
        ]

    def test_x2_empty(self):
        assert multi_modulus_ramifiers(2) == []

    def test_x20_nonempty(self):
        assert multi_modulus_ramifiers(20)

    @given(st.integers(2, 70))
    @settings(max_examples=40)
    def test_matches_naive(self, x):
        assert multi_modulus_ramifiers(x) == naive_multi(x)

    def test_matches_naive_x137(self):
        # beyond the drawn range; the naive oracle alone would cross the deadline
        assert multi_modulus_ramifiers(137) == naive_multi(137)

    @pytest.mark.parametrize("x", range(138, 151))
    def test_matches_naive_every_residue_mod_12(self, x):
        # 13 consecutive x: x, and with it n = x, x - 1, ..., takes every
        # residue mod 12, so each case of the 3 | n and parity splits of the
        # bands n < 2m meets the cap m <= x
        assert multi_modulus_ramifiers(x) == naive_multi(x)


class TestMultiModulusBudget:
    def test_budget_covers_the_traced_peak(self):
        # the charge per pair (n, m) covers the peak tracemalloc measures
        for x in (300, 1_000):
            tracemalloc.start()
            try:
                multi_modulus_ramifiers(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 8 * peak <= _MULTI_BITS_PER_PAIR * x * x, x

    def test_first_refused_x(self):
        # 32 bits per pair: 2**30 bits hold x = 5792 and refuse x = 5793, while
        # the counting benchmark's x <= 2530 takes a fifth of the budget
        assert _MULTI_BITS_PER_PAIR * 5792**2 <= DEFAULT_BUDGET_BITS
        assert _MULTI_BITS_PER_PAIR * 2530**2 < DEFAULT_BUDGET_BITS // 4
        with pytest.raises(ResourceBudgetError):
            multi_modulus_ramifiers(5793)


class TestLowBands:
    def test_ascending_and_exact(self):
        # _least_in_bands reads the bands in order for the least (strong) n
        for m in range(2, 301):
            below_2m = naive_set(m, 2 * m - 1)
            for x in {2, m // 2, m - 1, m + m // 2, 2 * m - 1, 3 * m}:
                if x < 2:
                    continue
                ns = [n for b in _low_bands(m, x) for n in b]
                assert all(a < b for a, b in zip(ns, ns[1:])), (m, x)
                assert ns == [n for n in below_2m if n <= x], (m, x)


class TestLowModuli:
    def test_inverts_low_bands(self):
        # the moduli of each n, read off the bands of every m <= x
        for x in range(2, 401):
            inverse = [[] for _ in range(x + 1)]
            for m in range(2, x + 1):
                for band in _low_bands(m, x):
                    for n in band:
                        inverse[n].append(m)
            for n in range(2, x + 1):
                assert [m for ms in _low_moduli(n, x) for m in ms] == inverse[n], (n, x)

    def test_matches_naive(self, naive_sets_200):
        # every modulus m <= x whose ramifiers include n with n < 2m
        for x in range(2, 201):
            expected = [[] for _ in range(x + 1)]
            for m in range(2, x + 1):
                for n in naive_sets_200[m]:
                    if n >= min(2 * m, x + 1):
                        break
                    expected[n].append(m)
            for n in range(2, x + 1):
                assert [m for ms in _low_moduli(n, x) for m in ms] == expected[n], (n, x)

    def test_only_n2_below_two_bands(self):
        # C8 settles every other n by its band moduli alone
        for x in (10, 2500, 3000, 5000):
            few = [n for n in range(2, x + 1) if sum(map(len, _low_moduli(n, x))) < 2]
            assert few == [2], x


class TestThreshold:
    @pytest.mark.parametrize("x, expected", [(4, 3), (20, 5), (100, 11), (1000, 32), (10_000, 101)])
    def test_values(self, x, expected):
        assert threshold(x) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold(1)
