"""Tests for the exact integer primitives: mobius, divisors, necklace counts."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neckprod.exact
from neckprod.exact import (
    NecklaceTable,
    _decimal_necklace_values,
    _necklace_values,
    build_necklace_table,
    divisors,
    mobius,
    mobius_sieve,
    necklace_count,
)


def mobius_oracle(n: int) -> int:
    # independent brute-force: full trial factorization with multiplicity
    factors = []
    m = n
    d = 2
    while m > 1:
        while m % d == 0:
            factors.append(d)
            m //= d
        d += 1
    if len(set(factors)) != len(factors):
        return 0
    return (-1) ** len(factors)


def divisors_oracle(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class TestMobius:
    def test_one(self):
        assert mobius(1) == 1

    def test_prime(self):
        assert mobius(7) == -1

    @pytest.mark.parametrize("n,expected", [(12, 0), (30, -1)])
    def test_derived_examples(self, n, expected):
        assert mobius_oracle(n) == expected
        assert mobius(n) == expected

    def test_against_oracle(self):
        for n in range(1, 301):
            assert mobius(n) == mobius_oracle(n), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_sieve_matches_pointwise(self):
        mu = mobius_sieve(500)
        assert mu[0] == 0
        for n in range(1, 501):
            assert mu[n] == mobius(n), n

    def test_large_arguments_up_to_the_limit(self):
        assert mobius(999_999_937) == -1  # the largest prime below 10^9
        assert mobius(999_999_999_989) == -1  # the largest prime below 10^12
        assert mobius(10**12) == 0

    def test_refuses_arguments_above_the_limit(self):
        with pytest.raises(ValueError, match="10\\^12"):
            mobius(10**12 + 1)
        with pytest.raises(ValueError, match="10\\^12"):
            mobius(10**18 + 3)

    def test_divisor_sum_of_mobius(self):
        # sum_{d|n} mu(d) is 1 at n=1 and 0 beyond
        for n in range(1, 200):
            total = sum(mobius(d) for d in divisors(n))
            assert total == (1 if n == 1 else 0)


class TestDivisors:
    def test_one(self):
        assert divisors(1) == [1]

    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_perfect_number(self):
        assert divisors_oracle(28) == [1, 2, 4, 7, 14, 28]
        assert divisors(28) == [1, 2, 4, 7, 14, 28]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=2000))
    def test_against_oracle(self, n):
        assert divisors(n) == divisors_oracle(n)

    def test_limit(self):
        assert divisors(10**12)[-2:] == [5 * 10**11, 10**12]
        with pytest.raises(ValueError, match="10\\^12"):
            divisors(10**12 + 1)
        with pytest.raises(ValueError, match="10\\^12"):
            necklace_count(2, 10**12 + 1)


class TestNecklaceCount:
    @pytest.mark.parametrize("a", [1, 2, 3, 10, 41])
    def test_n_equals_one(self, a):
        assert necklace_count(a, 1) == a

    @pytest.mark.parametrize(
        "a,n,expected", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (4, 2, 6)]
    )
    def test_known_values(self, a, n, expected):
        # cross-checked against brute-force field enumeration in test_verify
        assert necklace_count(a, n) == expected

    def test_size_limit(self):
        # n log2(a) <= 6 * 10^6 is admitted; past it the refusal names the
        # largest feasible n, before any work
        with pytest.raises(ValueError, match="largest feasible degree is 6000000$"):
            necklace_count(2, 6_000_001)
        with pytest.raises(ValueError, match="largest feasible degree is 6$"):
            necklace_count(2 ** 10**6, 7)
        assert necklace_count(2 ** 10**6, 5) == (2 ** (5 * 10**6) - 2 ** 10**6) // 5
        assert necklace_count(1, 10**9) == necklace_count(1, 10**12) == 0  # a = 1 has no size bound
        with pytest.raises(ValueError, match="10\\^12"):  # the factoring limit still comes first
            necklace_count(1, 10**12 + 1)

    def test_formula_four_squared(self):
        assert necklace_count(4, 2) == (4**2 - 4) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            necklace_count(0, 3)
        with pytest.raises(ValueError):
            necklace_count(2, 0)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300)
    def test_gauss_congruence(self, a, n):
        # n divides sum_{d|n} mu(n/d) a^d, hence the count is an exact integer
        total = sum(mobius(n // d) * a**d for d in divisors(n))
        assert total % n == 0
        assert necklace_count(a, n) == total // n

    @given(st.sampled_from([2, 3, 5, 10]), st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_mobius_inversion(self, a, n):
        assert sum(d * necklace_count(a, d) for d in divisors(n)) == a**n

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=40))
    def test_positivity_and_bound(self, a, n):
        count = necklace_count(a, n)
        assert count > 0
        assert n * count <= a**n


class TestNecklaceTable:
    def test_base_two(self):
        assert build_necklace_table(2, 4).values == (2, 1, 2, 3)

    def test_base_one_degenerates(self):
        assert build_necklace_table(1, 5).values == (1, 0, 0, 0, 0)

    def test_base_three(self):
        table = build_necklace_table(3, 3)
        assert table.values == (3, 3, 8)
        assert table.value(3) == (27 - 3) // 3

    @pytest.mark.parametrize("a,D", [(2, 64), (3, 40), (10, 30), (1, 10)])
    def test_matches_pointwise_counts(self, a, D):
        table = build_necklace_table(a, D)
        for n in range(1, D + 1):
            assert table.value(n) == necklace_count(a, n)

    def test_inversion_invariant(self):
        table = build_necklace_table(5, 32)
        for n in range(1, 33):
            assert sum(d * table.value(d) for d in divisors(n)) == 5**n

    def test_value_range_checked(self):
        table = build_necklace_table(2, 4)
        with pytest.raises(ValueError):
            table.value(0)
        with pytest.raises(ValueError):
            table.value(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_necklace_table(0, 4)
        with pytest.raises(ValueError):
            build_necklace_table(2, 0)

    def test_size_limit(self):
        # D^2 log2(a) <= 8.6 * 10^8 is admitted, so for log2(a) = 10^6 up to
        # D = 29; past it the refusal names the largest feasible degree
        a = 2 ** 10**6
        assert build_necklace_table(a, 29).degree_bound == 29
        with pytest.raises(ValueError, match="largest feasible degree is 29$"):
            build_necklace_table(a, 30)
        # a = 1, whose values are 0 and 1, counts as a = 2: D <= 29,325
        assert build_necklace_table(1, 29325).values[:3] == (1, 0, 0)
        with pytest.raises(ValueError, match="largest feasible degree is 29325$"):
            build_necklace_table(1, 29326)

    def test_immutable(self):
        table = build_necklace_table(2, 4)
        with pytest.raises(AttributeError):
            table.base = 3
        assert isinstance(table, NecklaceTable)

    def test_equal_tables_hash_alike(self):
        a, b = build_necklace_table(3, 6), build_necklace_table(3, 6)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != build_necklace_table(3, 5) and a != build_necklace_table(2, 6)
        assert repr(a) == f"NecklaceTable(base=3, degree_bound=6, values={a.values})"


@pytest.fixture
def unlimited_int_str():
    # the values pass Python's default limit of 4,300 digits on int-to-str
    # conversion (added in 3.10.7, 3.11.0), which the CLI lifts too
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.usefixtures("unlimited_int_str")
class TestDecimalTable:
    # `necklace table` writes the values of the decimal sweep; its strings
    # must be those of the int table, value for value
    @pytest.mark.parametrize("a", [1, 2, 3, 10, 1000, 10**6, 2**61 - 1])
    def test_strings_equal_the_int_tables(self, a):
        for D in (1, 2, 3, 50, 700):
            assert D * D * math.log2(max(a, 2)) <= 8.6e8  # every cell is within the size limit
            ints = build_necklace_table(a, D).values
            assert all(type(v) is int for v in ints)
            assert [str(v) for v in _decimal_necklace_values(a, D)] == [str(v) for v in ints]

    def test_largest_row_is_exact(self):
        # about 80,000 bits: a context of 28 digits, or one that rounds, writes another value
        row = _decimal_necklace_values(10**6, 4000)[-1]
        assert str(row) == str(necklace_count(10**6, 4000))

    def test_refuses_what_the_int_table_refuses(self):
        with pytest.raises(ValueError, match="largest feasible degree is 29325$"):
            _decimal_necklace_values(2, 29326)
        with pytest.raises(ValueError, match="a >= 1"):
            _decimal_necklace_values(0, 4)

    @pytest.mark.parametrize("sweep", [_necklace_values, _decimal_necklace_values])
    def test_indivisible_divisor_sum_raises(self, monkeypatch, sweep):
        # mu(4) = 1 instead of 0 gives sums[4] = 2^4 - 2^2 + 2 = 14, not divisible by 4
        wrong = neckprod.exact.mobius_sieve(8)
        wrong[4] = 1
        monkeypatch.setattr(neckprod.exact, "mobius_sieve", lambda limit: wrong)
        with pytest.raises(AssertionError, match="sum 14 not divisible by n=4"):
            sweep(2, 8)
