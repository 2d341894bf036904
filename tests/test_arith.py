import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.arith import (
    DEFAULT_BUDGET_BITS,
    ResourceBudgetError,
    divisors_in_range,
    prime_table,
)


def trial_is_prime(v):
    return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))


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
            assert pt.is_prime(p) == trial_is_prime(p), p

    def test_budget(self):
        # one bit per n in [0, limit], checked before anything is allocated
        with pytest.raises(ResourceBudgetError):
            prime_table(DEFAULT_BUDGET_BITS)

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
