"""Tests for truncated series arithmetic and the two expansion routes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckprod.series import (
    ExponentSpec,
    TruncatedSeries,
    eval_complex,
    expand_direct,
    expand_recursive,
)

exponent_lists = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=1, max_size=24
)
# large exponents of either sign: long negative-binomial tails, and positive
# factors whose binomial terms never stop before z^D
big_exponent_lists = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=40
)


def _cauchy(x, y):
    # exact product of two coefficient tuples of equal length, truncated there
    return tuple(sum(x[i] * y[m - i] for i in range(m + 1)) for m in range(len(x)))


class TestBinomialFactor:
    # a spec with one nonzero exponent expands to that factor's binomial terms

    @staticmethod
    def _factor(n, e, D):
        exponents = [0] * D
        exponents[n - 1] = e
        return expand_direct(ExponentSpec(exponents=tuple(exponents)))

    def test_square(self):
        assert self._factor(1, 2, 3).coeffs == (1, -2, 1, 0)

    def test_plain_factor(self):
        assert self._factor(2, 1, 5).coeffs == (1, 0, -1, 0, 0, 0)

    def test_geometric_series(self):
        geo = self._factor(1, -1, 4)
        assert geo.coeffs == (1, 1, 1, 1, 1)
        # multiplying back by (1 - z) recovers the identity
        assert _cauchy(geo.coeffs, self._factor(1, 1, 4).coeffs) == (1, 0, 0, 0, 0)

    def test_negative_exponent_inverse(self):
        for n, e, D in [(2, -3, 10), (3, -1, 9), (1, -4, 8)]:
            forward = self._factor(n, e, D)
            backward = self._factor(n, -e, D)
            assert _cauchy(forward.coeffs, backward.coeffs) == (1,) + (0,) * D


class TestExpansion:
    def test_empty_product(self):
        spec = ExponentSpec(exponents=(0,) * 6)
        assert expand_direct(spec).coeffs == (1, 0, 0, 0, 0, 0, 0)
        assert expand_recursive(spec).coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_pentagonal_numbers(self):
        spec = ExponentSpec(exponents=(1,) * 10)
        expected = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0)
        assert expand_direct(spec).coeffs == expected
        assert expand_recursive(spec).coeffs == expected

    def test_necklace_exponents_collapse(self):
        from neckprod.exact import build_necklace_table

        table = build_necklace_table(2, 8)
        spec = ExponentSpec(exponents=table.values)
        assert expand_direct(spec).coeffs == (1, -2, 0, 0, 0, 0, 0, 0, 0)

    def test_single_linear_factor(self):
        spec = ExponentSpec(exponents=(1, 0, 0, 0))
        assert expand_recursive(spec).coeffs == (1, -1, 0, 0, 0)

    def test_necklace_recursion_base_three(self):
        from neckprod.exact import build_necklace_table

        table = build_necklace_table(3, 12)
        spec = ExponentSpec(exponents=table.values, necklace_base=3)
        assert expand_recursive(spec).coeffs == (1, -3) + (0,) * 11

    def test_necklace_flag_asserts_divisor_sums(self):
        # wrong exponents under the necklace flag must trip the a^k assertion
        spec = ExponentSpec(exponents=(2, 1, 2, 4), necklace_base=2)
        with pytest.raises(AssertionError):
            expand_recursive(spec)

    @given(st.one_of(exponent_lists, big_exponent_lists))
    @settings(max_examples=200, deadline=None)
    def test_oracle_equivalence(self, exponents):
        spec = ExponentSpec(exponents=tuple(exponents))
        assert expand_recursive(spec).coeffs == expand_direct(spec).coeffs

    @given(exponent_lists, exponent_lists)
    @settings(max_examples=100, deadline=None)
    def test_product_homomorphism(self, e1, e2):
        size = max(len(e1), len(e2))
        e1 = e1 + [0] * (size - len(e1))
        e2 = e2 + [0] * (size - len(e2))
        combined = expand_direct(ExponentSpec(exponents=tuple(x + y for x, y in zip(e1, e2))))
        split = _cauchy(
            expand_direct(ExponentSpec(exponents=tuple(e1))).coeffs,
            expand_direct(ExponentSpec(exponents=tuple(e2))).coeffs,
        )
        assert combined.coeffs == split

    @given(exponent_lists)
    @settings(max_examples=100, deadline=None)
    def test_constant_term_is_one(self, exponents):
        spec = ExponentSpec(exponents=tuple(exponents))
        assert expand_direct(spec).coeffs[0] == 1
        assert expand_recursive(spec).coeffs[0] == 1


def _single(m, e, D):
    # (1 - z^m)^e for e = 1 or -1 in closed form: 1 - z^m, or sum_j z^(mj)
    if e == 1:
        return tuple(1 if i == 0 else -1 if i == m else 0 for i in range(D + 1))
    return tuple(int(i % m == 0) for i in range(D + 1))


def _spec(D, *factors):
    # the exponents of prod (1 - z^m)^e over the factors (m, e)
    exponents = [0] * D
    for m, e in factors:
        exponents[m - 1] += e
    return ExponentSpec(exponents=tuple(exponents))


class TestSparseSupport:
    # the recursion sums over the nonzero coefficients found so far; these
    # supports have gaps, or turn dense part way through

    @pytest.mark.parametrize("m", [1, 2, 5, 17])
    @pytest.mark.parametrize("e", [1, -1])
    def test_single_factor(self, m, e):
        D = 40
        spec = _spec(D, (m, e))
        assert expand_recursive(spec).coeffs == _single(m, e, D) == expand_direct(spec).coeffs

    @pytest.mark.parametrize("m1,e1,m2,e2", [(3, 1, 7, 1), (3, -1, 7, 1), (4, -1, 6, -1), (1, 1, 9, -1), (5, -1, 5, 1)])
    def test_product_of_two_factors(self, m1, e1, m2, e2):
        D = 45
        spec = _spec(D, (m1, e1), (m2, e2))
        expected = _cauchy(_single(m1, e1, D), _single(m2, e2, D))
        assert expand_recursive(spec).coeffs == expected == expand_direct(spec).coeffs

    def test_base_one_necklace_spec(self):
        from neckprod.verify import necklace_exponent_spec

        spec = necklace_exponent_spec(1, 300)
        assert expand_recursive(spec).coeffs == (1, -1) + (0,) * 299

    @pytest.mark.parametrize("a,m,delta", [(2, 1, -1), (2, 2, -1), (3, 7, 2), (1, 5, -3), (2, 10, 1)])
    def test_one_necklace_exponent_changed(self, a, m, delta):
        # the product is (1 - a z) (1 - z^m)^delta, with no necklace flag
        from neckprod.exact import build_necklace_table

        D = 60
        exponents = list(build_necklace_table(a, D).values)
        exponents[m - 1] += delta
        spec = ExponentSpec(exponents=tuple(exponents))
        factor = _spec(D, (m, delta))
        expected = _cauchy((1, -a) + (0,) * (D - 1), expand_direct(factor).coeffs)
        assert expand_recursive(spec).coeffs == expected == expand_direct(spec).coeffs

    @pytest.mark.parametrize("a,m", [(2, 12), (3, 5), (4, 4)])
    def test_support_turns_dense(self, a, m):
        # necklace exponents for n < m and none from m on: the product is
        # (1 - a z) / prod_{n>=m} (1 - z^n)^N(a, n), which is 1 - a z below
        # z^m and has a nonzero coefficient at most powers from there to z^D
        from neckprod.exact import build_necklace_table

        D = 50
        exponents = build_necklace_table(a, m - 1).values + (0,) * (D - m + 1)
        got = expand_recursive(ExponentSpec(exponents=exponents)).coeffs
        assert got == expand_direct(ExponentSpec(exponents=exponents)).coeffs
        assert got[:m] == (1, -a) + (0,) * (m - 2)
        assert sum(1 for c in got[m:] if c) > (D - m) // 2


class TestEvalComplex:
    def test_at_zero_returns_constant(self):
        s = TruncatedSeries((7, -3, 5))
        assert eval_complex(s, 0) == 7

    def test_linear(self):
        s = TruncatedSeries((1, -2, 0, 0))
        assert eval_complex(s, 0.25) == 0.5

    def test_quadratic(self):
        s = TruncatedSeries((1, -1, -1))
        assert abs(eval_complex(s, 0.1) - 0.89) < 1e-12

    def test_complex_point(self):
        s = TruncatedSeries((1, 0, 1))
        z = 0.5j
        assert abs(eval_complex(s, z) - (1 + z * z)) < 1e-15


class TestSerialization:
    def test_round_trip_with_big_coefficients(self):
        s = TruncatedSeries((1, -(10**40), 3, 0))
        encoded = s.to_json()
        assert encoded == ["1", f"-{10**40}", "3", "0"]

    def test_degree_bound_property(self):
        assert TruncatedSeries((1,)).degree_bound == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())
        with pytest.raises(ValueError):
            ExponentSpec(exponents=())

    def test_exponent_accessor(self):
        spec = ExponentSpec(exponents=(4, -1, 0))
        assert spec.degree_bound == 3
        assert spec.exponent(2) == -1
        with pytest.raises(ValueError):
            spec.exponent(4)
