"""Tests for field construction, monic enumeration, and irreducibility tests."""

import concurrent.futures
import functools
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from neckprod.exact import divisors, necklace_count
from neckprod.finitefield import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FieldContext,
    MonicPoly,
    NotPrimeError,
    build_field,
    count_irreducibles,
    is_irreducible_rabin,
    is_irreducible_trial,
    is_prime,
)
import neckprod.digits as digits
import neckprod.engine as engine
import neckprod.finitefield as ff
from neckprod.finitefield import _index_coeffs


def enumerate_monic(field, n, budget=DEFAULT_BUDGET):
    # the q^n monic degree-n polynomials in enumeration order, the scalar
    # enumeration the engine's flags are compared against
    total = ff.check_sweep(field.p, field.k, n, budget=budget)
    for idx in range(total):
        yield MonicPoly(field, _index_coeffs(field.q, n, idx) + (1,))


def _scalar_flags_block(field, n, lo, hi, method):
    # the scalar test's verdict for each enumeration index in [lo, hi)
    test = is_irreducible_trial if method == "trial" else is_irreducible_rabin
    polys = (MonicPoly(field, _index_coeffs(field.q, n, idx) + (1,)) for idx in range(lo, hi))
    return np.array([test(poly) for poly in polys], dtype=bool)


def _bits(mask, rows):
    # the verdicts of an engine mask as a bool array, bit r for row r
    packed = np.frombuffer(mask.to_bytes(-(-rows // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=rows, bitorder="little").astype(bool)


def _flags(field, n, lo, hi, method):
    # engine._flags_range's verdicts of rows lo..hi - 1, its masks of the
    # cuts (a, b) unpacked in order
    cuts, masks = engine._flags_range(field, n, lo, hi, method)
    assert [a for a, _ in cuts] + [hi] == [lo] + [b for _, b in cuts]
    return np.concatenate([_bits(mask, b - a) for (a, b), mask in zip(cuts, masks)])


class TestBuildField:
    def test_prime_field(self):
        f = build_field(2, 1)
        assert (f.p, f.k, f.q) == (2, 1, 2)
        assert f.modulus == (0, 1)  # the identity modulus x

    def test_f4_modulus(self):
        # x^2 + x + 1 is the unique irreducible quadratic over F_2
        assert build_field(2, 2).modulus == (1, 1, 1)

    def test_f9_modulus(self):
        # smallest lex monic quadratic over F_3 with no root
        assert build_field(3, 2).modulus == (1, 0, 1)

    def test_non_prime_rejected(self):
        with pytest.raises(NotPrimeError):
            build_field(4, 1)
        with pytest.raises(NotPrimeError):
            build_field(9, 2)
        with pytest.raises(NotPrimeError):
            build_field(1, 1)
        # p is refused before k, and before any modulus search
        for p, k in [(4, 2), (4, 1), (9, 0), (1, 3), (10**25, 2)]:
            with pytest.raises(NotPrimeError) as info:
                build_field(p, k)
            assert (type(info.value), str(info.value)) == (NotPrimeError, f"p={p} is not prime")

    def test_bad_extension_degree(self):
        with pytest.raises(ValueError) as info:
            build_field(2, 0)
        assert (type(info.value), str(info.value)) == (ValueError, "extension degree k must be >= 1, got 0")

    def test_modulus_is_irreducible(self):
        # modulus viewed as a monic poly over F_p passes the trial oracle
        for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)]:
            ext = build_field(p, k)
            base = build_field(p, 1)
            assert is_irreducible_trial(MonicPoly(base, ext.modulus))

    def test_moduli_are_the_lex_smallest_irreducibles(self):
        # for every p^k <= 2^12 with k >= 2 the trial oracle accepts the
        # modulus and rejects every candidate before it in enumeration order
        for p in filter(is_prime, range(2, 65)):
            base = build_field(p, 1)
            k = 2
            while p**k <= 1 << 12:
                modulus = build_field(p, k).modulus
                for poly in enumerate_monic(base, k):
                    if poly.coeffs == modulus:
                        assert is_irreducible_trial(poly), (p, k)
                        break
                    assert not is_irreducible_trial(poly), (p, k, poly.coeffs)
                k += 1

    def test_large_extensions_build_at_once(self):
        for p, k in [(2, 40), (3, 25), (2, 62)]:
            start = time.perf_counter()
            build_field(p, k)
            assert time.perf_counter() - start < 1.0, (p, k)

    def test_field_is_the_record_of_p_k_and_modulus(self):
        # a namedtuple: equal to and hashed as its plain tuple, as the hand-written
        # __eq__ and __hash__ it replaced; q is derived, so it cannot be set either
        field = build_field(3, 2)
        assert isinstance(field, tuple) and field == (3, 2, (1, 0, 1)) and field.q == 9
        assert hash(field) == hash((3, 2, (1, 0, 1)))
        assert field != build_field(3, 1) and field != FieldContext(3, 2, (2, 1, 1))
        with pytest.raises(AttributeError):
            field.q = 10

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            FieldContext(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2
        with pytest.raises(ValueError, match="monic"):
            FieldContext(3, 2, (1, 0, 2))


class TestElementArithmetic:
    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
    def test_field_axioms_sampled(self, p, k):
        f = build_field(p, k)
        q = f.q
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert f.mul(a, b) == f.mul(b, a)
                assert f.add(a, b) == f.add(b, a)

    def test_vector_code_round_trip(self):
        f = build_field(3, 2)
        for code in range(f.q):
            assert f.element_code(f.element_vector(code)) == code

    def test_prime_field_inverse(self):
        f = build_field(7, 1)
        for a in range(1, 7):
            assert (a * f.inv(a)) % 7 == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


class TestMonicPoly:
    def test_validation(self):
        f2 = build_field(2, 1)
        with pytest.raises(ValueError):
            MonicPoly(f2, (1, 2))  # coefficient outside the field
        with pytest.raises(ValueError):
            MonicPoly(f2, (1, 0))  # not monic
        with pytest.raises(ValueError):
            MonicPoly(f2, ())


class TestEnumerateMonic:
    def test_degree_one_over_f2(self):
        f2 = build_field(2, 1)
        assert [p.coeffs for p in enumerate_monic(f2, 1)] == [(0, 1), (1, 1)]

    @pytest.mark.parametrize(
        "p,k,n,expected", [(2, 1, 3, 8), (2, 2, 2, 16), (3, 1, 4, 81)]
    )
    def test_counts(self, p, k, n, expected):
        field = build_field(p, k)
        polys = list(enumerate_monic(field, n))
        assert len(polys) == expected
        assert len({poly.coeffs for poly in polys}) == expected
        assert all(poly.degree == n for poly in polys)

    def test_lexicographic_order(self):
        f3 = build_field(3, 1)
        seen = [poly.coeffs[:-1] for poly in enumerate_monic(f3, 2)]
        assert seen == sorted(seen)
        assert seen[0] == (0, 0) and seen[-1] == (2, 2)

    def test_budget_refusal_names_budget(self):
        f2 = build_field(2, 1)
        with pytest.raises(BudgetExceededError, match="1024"):
            next(enumerate_monic(f2, 11, budget=1024))

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            list(enumerate_monic(build_field(2, 1), 0))


class TestIrreducibilityExamples:
    def test_trial_degree_one(self):
        f2 = build_field(2, 1)
        assert is_irreducible_trial(MonicPoly(f2, (0, 1)))

    def test_trial_square_detected(self):
        f2 = build_field(2, 1)
        assert not is_irreducible_trial(MonicPoly(f2, (1, 0, 1)))  # (x+1)^2

    def test_trial_quadratic(self):
        f2 = build_field(2, 1)
        assert is_irreducible_trial(MonicPoly(f2, (1, 1, 1)))

    def test_rabin_linear_over_f3(self):
        f3 = build_field(3, 1)
        assert is_irreducible_rabin(MonicPoly(f3, (1, 1)))

    def test_rabin_quartics_over_f2(self):
        f2 = build_field(2, 1)
        good = MonicPoly(f2, (1, 1, 0, 0, 1))  # x^4 + x + 1
        bad = MonicPoly(f2, (1, 0, 1, 0, 1))  # (x^2 + x + 1)^2
        assert is_irreducible_rabin(good) and is_irreducible_trial(good)
        assert not is_irreducible_rabin(bad) and not is_irreducible_trial(bad)

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (5, 1), (3, 2)])
    def test_poly_rem_leaves_the_remainder(self, p, k):
        # a = h g + r by FieldContext arithmetic, g monic and deg r < deg g;
        # h = 0 gives a = r, of at most deg g coefficients
        field = build_field(p, k)
        rng = np.random.default_rng(p * k)
        for dg in (1, 2, 3, 5):
            for dh in (-1, 0, 1, 4):
                g = rng.integers(field.q, size=dg).tolist() + [1]
                h = rng.integers(field.q, size=dh + 1).tolist()
                r = rng.integers(field.q, size=rng.integers(dg + 1)).tolist()
                a = r + [0] * (len(h) + dg - len(r)) if h else list(r)
                for i, hi in enumerate(h):
                    for j, gj in enumerate(g):
                        a[i + j] = field.add(a[i + j], field.mul(hi, gj))
                assert ff._poly_rem(field, a, g) == r + [0] * (dg - len(r)), (dg, dh)

    def test_degree_zero_rejected(self):
        f2 = build_field(2, 1)
        unit = MonicPoly(f2, (1,))
        with pytest.raises(ValueError):
            is_irreducible_trial(unit)
        with pytest.raises(ValueError):
            is_irreducible_rabin(unit)


class TestAgreementAndEngine:
    @pytest.mark.parametrize("p,k,max_n", [(2, 1, 8), (3, 1, 5), (2, 2, 3), (5, 1, 3)])
    def test_scalar_tests_agree_exhaustively(self, p, k, max_n):
        field = build_field(p, k)
        for n in range(1, max_n + 1):
            for poly in enumerate_monic(field, n):
                assert is_irreducible_trial(poly) == is_irreducible_rabin(poly), str(poly)

    # F_5 n = 3 steps its Frobenius columns up from x, F_7 n = 3 and
    # F_11 n = 2 multiply them from x^q, the engine's choice once q > 2n
    @pytest.mark.parametrize("p,k,max_n", [(2, 1, 9), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3),
                                           (11, 1, 2), (3, 2, 2)])
    def test_block_engine_matches_scalar(self, p, k, max_n):
        field = build_field(p, k)
        for n in range(1, max_n + 1):
            total = field.q**n
            for method in ("trial", "rabin"):
                batch = _flags(field, n, 0, total, method)
                scalar = _scalar_flags_block(field, n, 0, total, method)
                assert np.array_equal(batch, scalar), (p, k, n, method)

    def test_scalar_tests_agree_on_samples_beyond_exhaustive_range(self):
        # random monic polys from domains past the q^deg <= 2^16 sweep
        rng = np.random.default_rng(23)
        for p, k, n in [(2, 1, 18), (3, 1, 11), (5, 1, 7), (2, 2, 9)]:
            field = build_field(p, k)
            for idx in rng.integers(0, field.q**n, size=4):
                poly = MonicPoly(field, _index_coeffs(field.q, n, int(idx)) + (1,))
                assert is_irreducible_trial(poly) == is_irreducible_rabin(poly)

    def test_flags_follow_enumeration_order(self):
        field = build_field(3, 1)
        flags = _flags(field, 3, 0, field.q**3, "trial")
        polys = list(enumerate_monic(field, 3))
        assert len(polys) == len(flags)
        for poly, flag in zip(polys, flags):
            assert is_irreducible_trial(poly) == bool(flag)

    def test_multi_block_concatenation(self, monkeypatch):
        field = build_field(2, 1)
        whole = {m: _flags(field, 12, 0, field.q**12, m) for m in ("trial", "rabin")}
        monkeypatch.setattr(engine, "_BLOCK", 500)  # force many blocks
        for method in ("trial", "rabin"):
            assert np.array_equal(_flags(field, 12, 0, field.q**12, method), whole[method])

    def test_rabin_blocks_hold_block_over_n_rows(self, monkeypatch):
        # the Frobenius column multiples hold n^2 k^2 digits per row: p >= 5
        # takes _BLOCK // (n k) rows a block; the plane forms keep the largest
        # 2^s or 3^s <= _BLOCK, _BLOCK rows for every F_(2^k) and 3^10 for F_(3^k)
        ranges = []
        for module in (engine, digits):
            monkeypatch.setattr(module, "_rabin_flags_block",
                                lambda field, n, lo, hi, block=module._rabin_flags_block:
                                ranges.append((lo, hi)) or block(field, n, lo, hi))
        assert count_irreducibles(build_field(2, 1), 17, "rabin") == necklace_count(2, 17)
        assert ranges == [(0, engine._BLOCK), (engine._BLOCK, 2 * engine._BLOCK)]
        ranges.clear()
        assert count_irreducibles(build_field(5, 1), 7, "rabin") == necklace_count(5, 7)
        rows = engine._BLOCK // 7
        assert ranges == [(lo, min(lo + rows, 5**7)) for lo in range(0, 5**7, rows)]
        for p, k, n, rows in [(2, 2, 9, engine._BLOCK), (5, 2, 3, engine._BLOCK // 6), (3, 1, 11, 3**10),
                              (3, 2, 6, 3**10)]:
            ranges.clear()
            assert count_irreducibles(build_field(p, k), n, "rabin") == necklace_count(p**k, n)
            assert ranges == [(lo, min(lo + rows, p ** (k * n))) for lo in range(0, p ** (k * n), rows)]

    @pytest.mark.parametrize("block", [4096, 1 << 16])
    @pytest.mark.parametrize("p,k,n", [(3, 1, 9), (2, 2, 5), (17, 1, 3)])
    def test_rabin_cut_ranges_match_the_full_sweep(self, monkeypatch, p, k, n, block):
        # worker-style cuts (total * i // workers) end inside blocks
        field = build_field(p, k)
        total = field.q**n
        whole = _flags(field, n, 0, total, "rabin")
        monkeypatch.setattr(engine, "_BLOCK", block)
        for workers in (3, 7):
            bounds = [total * i // workers for i in range(workers + 1)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                assert lo % (block // n) or hi % (block // n)
                assert np.array_equal(_flags(field, n, lo, hi, "rabin"), whole[lo:hi]), (workers, lo)

    def test_block_engine_matches_scalar_sampled_large(self):
        # spot checks at the top of the exhaustive-agreement domain
        rng = np.random.default_rng(7)
        for p, k, n in [(2, 1, 14), (3, 1, 8), (2, 2, 6), (5, 1, 5)]:
            field = build_field(p, k)
            flags_t = _flags(field, n, 0, field.q**n, "trial")
            flags_r = _flags(field, n, 0, field.q**n, "rabin")
            assert np.array_equal(flags_t, flags_r)
            for idx in rng.integers(0, field.q**n, size=12):
                poly = MonicPoly(field, _index_coeffs(field.q, n, int(idx)) + (1,))
                assert is_irreducible_trial(poly) == bool(flags_t[idx])
                assert is_irreducible_rabin(poly) == bool(flags_r[idx])


def _gf2_index(coeffs):
    # enumeration index of a monic poly over F_2: c_0 is the top digit
    n = len(coeffs) - 1
    return sum(c << (n - 1 - j) for j, c in enumerate(coeffs[:-1]))


def _refuse(*args, **kwargs):
    raise AssertionError("this engine path must not run")


class TestGF2Engine:
    @pytest.mark.parametrize("method", ["trial", "rabin"])
    def test_matches_scalar_oracle_exhaustively(self, method):
        field = build_field(2, 1)
        for n in range(1, 13):
            total = 2**n
            gf2 = _flags(field, n, 0, total, method)
            assert np.array_equal(gf2, _scalar_flags_block(field, n, 0, total, method)), n

    def test_matches_generic_block_engine(self):
        # worker-style cuts (total * i // workers), which split blocks and
        # words of 64 rows, give the slices of the full sweep
        field = build_field(2, 1)
        for n in (13, 14, 17):
            total = 2**n
            whole = _flags(field, n, 0, total, "rabin")
            for workers in (3, 7):
                bounds = [total * i // workers for i in range(workers + 1)]
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    assert lo % 64 or hi % 64
                    assert np.array_equal(_flags(field, n, lo, hi, "rabin"), whole[lo:hi]), (n, lo)

    @pytest.mark.parametrize("n,lo", [(1, 0), (5, 0), (9, 0), (9, 300), (12, 1000)])
    def test_words_follow_enumeration_order(self, n, lo):
        # the bit planes of rows lo..lo + width - 1 over F_2: bit r of the
        # plane of coefficient i is that coefficient of row lo + r, no bit
        # past the rows is set, and the rows share their index bits from t up
        polys = list(enumerate_monic(build_field(2, 1), n))
        for width in (1, 63, 64, 65, 300):
            if lo + width > len(polys):
                continue
            planes, t = engine._planes(n, 1, lo, lo + width, 2)
            assert lo >> t == (lo + width - 1) >> t
            for i in range(n):
                plane = planes[n - 1 - i]
                assert [plane >> r & 1 for r in range(width)] == [poly.coeffs[i] for poly in polys[lo : lo + width]]
                assert plane >> width == 0, (i, width)

    def test_rabin_at_the_word_cap(self):
        # a primitive polynomial of degree 32 and random rows
        field = build_field(2, 1)
        primitive = [0] * 33
        for i in (0, 1, 2, 22, 32):  # x^32 + x^22 + x^2 + x + 1
            primitive[i] = 1
        rng = np.random.default_rng(11)
        indices = [_gf2_index(primitive)] + [int(i) for i in rng.integers(0, 2**32, size=5)]
        for idx in indices:
            flag = _flags(field, 32, idx, idx + 1, "rabin")[0]
            assert flag == _scalar_flags_block(field, 32, idx, idx + 1, "rabin")[0], idx
        assert _flags(field, 32, indices[0], indices[0] + 1, "rabin")[0]

    def test_serves_f2_up_to_the_cap(self, monkeypatch):
        # one Rabin block function serves F_2 at every degree, n = 33 (past
        # the 32 of a one-word-per-polynomial layout) included
        field = build_field(2, 1)
        rows = [0, 1, 2, 3] + [int(i) for i in np.random.default_rng(33).integers(2**32, 2**33, size=6)]
        expected = {m: _scalar_flags_block(field, 8, 0, 2**8, m) for m in ("trial", "rabin")}
        expected_33 = {m: np.array([_scalar_flags_block(field, 33, i, i + 1, m)[0] for i in rows])
                       for m in ("trial", "rabin")}
        degrees = []
        block = engine._rabin_flags_block
        monkeypatch.setattr(engine, "_rabin_flags_block",
                            lambda field, n, lo, hi: degrees.append(n) or block(field, n, lo, hi))
        for name in ("is_irreducible_trial", "is_irreducible_rabin"):
            monkeypatch.setattr(ff, name, _refuse)
        for n in range(2, 17):
            assert count_irreducibles(field, n, "rabin") == necklace_count(2, n), n
        assert sorted(set(degrees)) == list(range(2, 17))
        for method in ("trial", "rabin"):
            assert np.array_equal(_flags(field, 8, 0, field.q**8, method), expected[method])
            assert np.array_equal(_engine_flags(field, 33, rows, method), expected_33[method])
        # rows with c_0 = 0 are divisible by x
        assert not _flags(field, 32, 0, 4, "trial").any()

    def test_trial_stops_once_every_row_has_a_factor(self, monkeypatch):
        # x divides row 0 of F_2 n = 33, so no g past degree 1 is asked for
        asked = []
        irreducibles = engine._irreducibles
        monkeypatch.setattr(engine, "_irreducibles", lambda field, d: asked.append(d) or irreducibles(field, d))
        assert engine._flags_range(build_field(2, 1), 33, 0, 1, "trial") == ([(0, 1)], [0])
        assert asked == [1]

    def test_other_fields_keep_their_paths(self, monkeypatch):
        # every p = 2 and p = 3 block, extensions and trial included, runs on
        # bit planes and none on the digit code; no block over p >= 5 runs on planes
        calls = []
        planes = engine._planes
        monkeypatch.setattr(engine, "_BLOCK", 1024)
        monkeypatch.setattr(engine, "_planes", lambda *args: calls.append(args) or planes(*args))
        for name in ("_rabin_flags_block", "_sieve_block", "_Arith"):
            monkeypatch.setattr(digits, name, _refuse)
        for p, k, n in [(2, 1, 12), (2, 2, 5), (2, 4, 3), (2, 8, 2), (3, 1, 8), (3, 2, 4), (3, 5, 2)]:
            for method in ("rabin", "trial"):
                calls.clear()
                assert count_irreducibles(build_field(p, k), n, method) == necklace_count(p**k, n)
                assert calls, (p, k, method)
        monkeypatch.undo()
        monkeypatch.setattr(engine, "_planes", _refuse)
        for p, k, n in [(5, 1, 4), (7, 1, 3), (5, 2, 2)]:
            for method in ("rabin", "trial"):
                assert count_irreducibles(build_field(p, k), n, method) == necklace_count(p**k, n)

    @pytest.mark.parametrize("n,irreducible", [(53, (0, 1, 2, 6, 53)), (60, (0, 1, 60)), (63, (0, 1, 63))])
    def test_rabin_rows_past_the_float_exact_width(self, n, irreducible):
        # degrees up to 63 through the whole Rabin path, finish included; rows
        # from the upper half of the range, since every row with c_0 = 0 is
        # divisible by x
        field = build_field(2, 1)
        coeffs = [1 if i in irreducible else 0 for i in range(n + 1)]
        rng = np.random.default_rng(n)
        rows = [_gf2_index(coeffs)] + [int(i) for i in rng.integers(2 ** (n - 1), 2**n - 1, size=12)]
        expected = [is_irreducible_rabin(MonicPoly(field, _index_coeffs(2, n, i) + (1,))) for i in rows]
        assert expected[0]
        assert _engine_flags(field, n, rows, "rabin").tolist() == expected

    def test_word_euclid_exact_to_64_bits(self):
        # the plane divstep finish on monic a of degree up to 63, all-ones
        # words among them, each with a b of lower degree: another word's bits
        # below a's top one, or zero, where the gcd is a itself
        field = build_field(2, 1)
        crafted = [2**61 - 1] + [2**k - 1 - d for k in range(54, 65) for d in (0, 1, 6)]
        rng = np.random.default_rng(64)
        randoms = [int(w) >> int(s) for w, s in zip(rng.integers(0, 2**63, size=200), rng.integers(0, 60, size=200))]
        randoms = [2 * w + 1 for w in randoms]  # odd, so never zero
        pairs = list(zip(crafted, crafted[1:] + crafted[:1])) + list(zip(crafted, randoms))
        pairs += list(zip(randoms[::2], randoms[1::2])) + [(w, w) for w in crafted[:3]] + [(w, 0) for w in crafted[:3]]
        pairs = [(u, v % (1 << (u.bit_length() - 1))) for u, v in pairs if u > 1]
        bits = lambda w, m: [(w >> i) & 1 for i in range(m)]
        got, expected = [], []
        for m in sorted({u.bit_length() for u, _ in pairs}):
            group = [(u, v) for u, v in pairs if u.bit_length() == m]
            # coefficient i of the polynomials of a side as one plane, bit r for row r
            a, b = ([[sum((w >> i & 1) << r for r, w in enumerate(side))] for i in range(m - 1)] for side in zip(*group))
            verdict = engine._coprime(a, b, (1 << len(group)) - 1, engine._form(field))
            got += [bool(verdict >> r & 1) for r in range(len(group))]
            expected += [ff._poly_gcd_is_one(field, bits(u, m), bits(v, m)) for u, v in group]
        assert max(u.bit_length() for u, _ in pairs) == 64
        assert got == expected
        assert 0 < sum(expected) < len(pairs)

    def test_trial_matches_rabin_past_the_exhaustive_range(self):
        # row for row past 2^16 rows, over F_2 and over both plane forms'
        # extensions and F_3, each sweep several blocks of the Rabin ladder
        cases = [(2, 1, n) for n in range(17, 21)] + [(3, 1, 12), (3, 2, 6), (3, 3, 4), (2, 2, 9), (2, 4, 5), (2, 3, 7)]
        for p, k, n in cases:
            field = build_field(p, k)
            flags = [_flags(field, n, 0, field.q**n, method) for method in ("trial", "rabin")]
            assert np.array_equal(*flags), (p, k, n)

    def test_f256_quadratics_exhaustively(self):
        # every monic quadratic over F_256, by both tests, against the
        # products (x + a)(x + b) = x^2 + (a + b) x + a b that FieldContext
        # forms, and against the scalar oracles on sampled rows (their
        # exhaustive run takes minutes)
        field = build_field(2, 8)
        expected = np.ones(1 << 16, dtype=bool)
        expected[[field.mul(a, b) << 8 | field.add(a, b) for a in range(256) for b in range(a, 256)]] = False
        rows = np.random.default_rng(256).integers(0, 1 << 16, size=40).tolist()
        for method in ("trial", "rabin"):
            assert np.array_equal(_flags(field, 2, 0, field.q**2, method), expected), method
            scalar = [_scalar_flags_block(field, 2, i, i + 1, method)[0] for i in rows]
            assert _engine_flags(field, 2, rows, method).tolist() == scalar == expected[rows].tolist()

    def test_generic_multi_block_concatenation(self, monkeypatch):
        field = build_field(3, 1)
        whole = {m: _flags(field, 7, 0, field.q**7, m) for m in ("trial", "rabin")}
        monkeypatch.setattr(engine, "_BLOCK", 500)
        for method in ("trial", "rabin"):
            assert np.array_equal(_flags(field, 7, 0, field.q**7, method), whole[method])

    def test_workers_do_not_change_trial_counts(self):
        # 2^17 rows are two sieve blocks, so three workers start two processes
        field = build_field(2, 1)
        for workers in (1, 2, 3):
            assert count_irreducibles(field, 17, method="trial", workers=workers) == necklace_count(2, 17)


# fields and degrees on which the sieve's blocks are checked
_SIEVE_CASES = [(2, 1, 14), (3, 1, 9), (3, 2, 4), (5, 2, 3), (5, 1, 6), (7, 1, 4)]


class TestProductSieve:
    @pytest.mark.parametrize("block", [500, 4096, 1 << 16])
    @pytest.mark.parametrize("p,k,n", _SIEVE_CASES)
    def test_block_size_does_not_change_flags(self, monkeypatch, p, k, n, block):
        field = build_field(p, k)
        rabin = _flags(field, n, 0, field.q**n, "rabin")
        monkeypatch.setattr(engine, "_BLOCK", block)
        assert np.array_equal(_flags(field, n, 0, field.q**n, "trial"), rabin)

    @pytest.mark.parametrize("p,k,n", [(2, 1, 10), (3, 1, 6), (3, 2, 4), (5, 1, 5)])
    def test_blocks_of_q_rows(self, monkeypatch, p, k, n):
        # a factor of degree d > s leaves no coefficient of h free: the
        # prefix fixes all of h, and only products that match it are marked
        field = build_field(p, k)
        rabin = _flags(field, n, 0, field.q**n, "rabin")
        monkeypatch.setattr(engine, "_BLOCK", field.q)
        assert np.array_equal(_flags(field, n, 0, field.q**n, "trial"), rabin)

    @pytest.mark.parametrize("p,k,n", _SIEVE_CASES)
    def test_unaligned_ranges(self, monkeypatch, p, k, n):
        field = build_field(p, k)
        whole = _flags(field, n, 0, field.q**n, "trial")
        monkeypatch.setattr(engine, "_BLOCK", 500)
        total = field.q**n
        rng = np.random.default_rng(n)
        bounds = [(0, 1), (total - 1, total), (499, 1001), (1, total - 1)]
        bounds += [tuple(sorted(int(b) for b in rng.integers(0, total + 1, size=2))) for _ in range(6)]
        for lo, hi in bounds:
            assert np.array_equal(_flags(field, n, lo, hi, "trial"), whole[lo:hi]), (lo, hi)

    def test_large_fields(self):
        assert count_irreducibles(build_field(251, 1), 2, "trial") == necklace_count(251, 2)
        # F_(251^2): a sweep of 63,001 blocks; rows that cross a block edge
        field = build_field(251, 2)
        lo = 1000 * field.q + 61001
        assert np.array_equal(_flags(field, 2, lo, lo + 4000, "trial"),
                              _flags(field, 2, lo, lo + 4000, "rabin"))

    def test_independent_of_rabin_and_scalar_tests(self, monkeypatch):
        # built first: FieldContext checks an extension's modulus by Rabin's test
        cases = [(build_field(p, k), n) for p, k, n in [(2, 1, 14), (2, 2, 5), (3, 1, 8), (3, 2, 4), (5, 1, 6),
                                                        (17, 2, 2)]]
        for module in (engine, digits):
            monkeypatch.setattr(module, "_rabin_flags_block", _refuse)
        for name in ("is_irreducible_trial", "is_irreducible_rabin"):
            monkeypatch.setattr(ff, name, _refuse)
        for field, n in cases:
            assert count_irreducibles(field, n, "trial") == necklace_count(field.q, n)


# (p, k, n, _BLOCK) for every element form: planes for F_2, F_4, F_3 and
# F_9, digits for F_5, F_7 and F_289, each with several blocks of either test
_SWEEP_CASES = [(2, 1, 9, 64), (2, 2, 4, 64), (3, 1, 6, 64), (3, 2, 3, 64), (17, 2, 2, 600), (5, 1, 4, 64),
                (7, 1, 3, 64)]
# each form's Rabin module and trial module and function: one Rabin and one
# trial block function for both plane forms
_BLOCK_FUNCTIONS = {p: (engine, engine, "_trial_planes") for p in (2, 3)}


class TestOneSweepLoop:
    @pytest.mark.parametrize("method", ["trial", "rabin"])
    @pytest.mark.parametrize("p,k,n,block", _SWEEP_CASES)
    def test_unaligned_ranges_count_their_rows(self, monkeypatch, p, k, n, block, method):
        # ranges that start and end inside blocks, across several of them or
        # within one, count what the scalar test finds on their rows
        field = build_field(p, k)
        monkeypatch.setattr(engine, "_BLOCK", block)
        step, total = engine._block_rows(field, n, method), field.q**n
        for lo, hi in [(step - 5, 2 * step + 5), (total - step - 3, total - 1), (step + 1, step + 3)]:
            assert len(engine._flags_range(field, n, lo, hi, method)[0]) == (hi - 1) // step - lo // step + 1
            expected = int(_scalar_flags_block(field, n, lo, hi, method).sum())
            assert engine._count_range((field, n, lo, hi, method)) == expected, (lo, hi)

    @pytest.mark.parametrize("p,k,n,block", _SWEEP_CASES)
    def test_block_functions_get_cuts_of_one_aligned_block(self, monkeypatch, p, k, n, block):
        # the engine alone cuts: every call of either form's block functions,
        # the trial's own sweeps for its factors included, stays in one block
        field = build_field(p, k)
        monkeypatch.setattr(engine, "_BLOCK", block)
        rabin_module, trial_module, trial_name = _BLOCK_FUNCTIONS.get(p, (digits, digits, "_trial_sieve"))
        rabin, trial, seen = rabin_module._rabin_flags_block, getattr(trial_module, trial_name), []
        monkeypatch.setattr(rabin_module, "_rabin_flags_block",
                            lambda field, n, a, b: seen.append(("rabin", n, a, b)) or rabin(field, n, a, b))
        monkeypatch.setattr(trial_module, trial_name, lambda field, n, cuts, step: seen.extend(
            ("trial", n, a, b) for a, b in cuts) or trial(field, n, cuts, step))
        total = field.q**n
        for method in ("trial", "rabin"):
            for workers in (1, 3):
                bounds = [total * i // workers for i in range(workers + 1)]
                assert sum(engine._count_range((field, n, lo, hi, method))
                           for lo, hi in zip(bounds[:-1], bounds[1:])) == necklace_count(field.q, n)
        assert {(method, d) for method, d, _, _ in seen} >= {("trial", n), ("rabin", n)}
        for method, d, a, b in seen:
            step = engine._block_rows(field, d, method)
            assert a < b and a // step == (b - 1) // step, (method, d, a, b)


def _ternary_element(codes, k):
    # element codes over F_(3^k) -> the p = 3 plane form: digit i of codes[r]
    # as bit r of the planes (high, low), set where the digit is 2 and 1
    digits = [[c // 3**i % 3 for c in codes] for i in range(k)]
    return [(sum((v == 2) << r for r, v in enumerate(ds)), sum((v == 1) << r for r, v in enumerate(ds)))
            for ds in digits]


def _ternary_codes(element, rows):
    # inverse of _ternary_element for rows codes
    return [sum((2 * (high >> r & 1) + (low >> r & 1)) * 3**i for i, (high, low) in enumerate(element))
            for r in range(rows)]


def _ternary_poly(codes, k):
    # (n, rows) codes -> a polynomial of plane elements
    return [_ternary_element(np.asarray(row).tolist(), k) for row in codes]


def _ternary_array(poly, rows):
    return np.array([_ternary_codes(e, rows) for e in poly])


@functools.lru_cache(maxsize=None)
def _scalar_sweep(p, k, n, method):
    # a scalar test's verdicts on every row, shared by both engine tests
    field = build_field(p, k)
    return _scalar_flags_block(field, n, 0, field.q**n, method)


class TestTernaryPlanes:
    # the p = 3 plane form: its rows against the scalar tests, its cuts
    # against whole sweeps, its arithmetic against FieldContext, and its rows
    # against the digits engine, which still serves any odd p
    @pytest.mark.parametrize("p,k,low_n,top_n", [(3, 1, 6, 8), (3, 2, 4, 4), (3, 3, 3, 3)])
    @pytest.mark.parametrize("method", ["trial", "rabin"])
    def test_matches_scalar_oracles_exhaustively(self, p, k, low_n, top_n, method):
        # with the lower degrees of TestAgreementAndEngine and
        # TestLogTableEngine, every row of F_3 n <= 8, F_9 n <= 4 and F_27
        # n <= 3.  The scalar Rabin test takes about 1.5 ms a row over F_9
        # and F_27, so there its verdicts are checked on every row through
        # the scalar trial test's, and by itself on sampled rows
        field = build_field(p, k)
        for n in range(low_n, top_n + 1):
            total = field.q**n
            flags = _flags(field, n, 0, total, method)
            assert np.array_equal(flags, _scalar_sweep(p, k, n, method if k == 1 else "trial")), n
            rows = np.random.default_rng(n).integers(0, total, size=60).tolist()
            assert flags[rows].tolist() == [_scalar_flags_block(field, n, i, i + 1, method)[0] for i in rows]

    @pytest.mark.parametrize("method", ["trial", "rabin"])
    def test_worker_cut_ranges_match_the_full_sweep(self, method):
        # cuts as --workers 3 and 7 make them over F_3 n=11, three blocks of
        # 3^10 rows, moved to odd bounds, some inside a block
        field, n = build_field(3, 1), 11
        total, step = 3**n, engine._block_rows(field, n, method)
        whole = _flags(field, n, 0, total, method)
        assert step == 3**10 and whole.sum() == necklace_count(3, n)
        for workers in (3, 7):
            bounds = [0] + [total * i // workers | 1 for i in range(1, workers + 1)]
            assert bounds[-1] == total and any(b % step for b in bounds)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                assert np.array_equal(_flags(field, n, lo, hi, method), whole[lo:hi]), (workers, lo)
        assert count_irreducibles(field, n, method, workers=2) == necklace_count(3, n)

    @pytest.mark.parametrize("block", [30, 500])
    @pytest.mark.parametrize("p,k,n", [(3, 1, 9), (3, 2, 4), (3, 3, 3), (2, 1, 12), (2, 2, 6), (2, 3, 4)])
    def test_block_size_does_not_change_flags(self, monkeypatch, p, k, n, block):
        # _BLOCK patched to 30 or 500, blocks of the largest p^s rows below
        # it, cut at unaligned bounds too: many cuts share a shape, and the
        # trial splits the digits of R and shares their prefixes
        field = build_field(p, k)
        whole = {m: _flags(field, n, 0, field.q**n, m) for m in ("trial", "rabin")}
        monkeypatch.setattr(engine, "_BLOCK", block)
        total = field.q**n
        for method in ("trial", "rabin"):
            assert engine._block_rows(field, n, method) == max(p**s for s in range(10) if p**s <= block)
            assert np.array_equal(_flags(field, n, 0, total, method), whole[method]), method
            lo, hi = 100, total - 101
            assert np.array_equal(_flags(field, n, lo, hi, method), whole[method][lo:hi]), method
        assert np.array_equal(whole["trial"], whole["rabin"])

    @pytest.mark.parametrize("p,k,n", [(3, 1, 11), (3, 2, 5)])
    def test_matches_digits_row_for_row(self, monkeypatch, p, k, n):
        # two independent engines: the planes, and the numpy digits of every
        # odd p put in their place on the same blocks
        field = build_field(p, k)
        planes = {m: _flags(field, n, 0, field.q**n, m) for m in ("trial", "rabin")}
        ran = []
        monkeypatch.setattr(engine, "_rabin_flags_block",
                            lambda *args: ran.append("rabin") or digits._rabin_flags_block(*args))
        monkeypatch.setattr(engine, "_trial_planes", lambda *args: ran.append("trial") or digits._trial_sieve(*args))
        monkeypatch.setattr(engine, "_planes", _refuse)
        for method in ("trial", "rabin"):
            assert np.array_equal(_flags(field, n, 0, field.q**n, method), planes[method]), method
        assert set(ran) == {"trial", "rabin"}
        assert planes["trial"].sum() == necklace_count(field.q, n)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_arithmetic_on_all_triples(self, k):
        # the F_3 form's add, negate, select and r + c e, with e's multiples
        # y^a e, on every triple of elements, and the scalar form of r + c e,
        # against FieldContext
        field = build_field(3, k)
        form = engine._form(field)
        r, c, e = (m.ravel().tolist() for m in np.meshgrid(*[np.arange(field.q)] * 3))
        rows = len(r)
        pr, pc, pe = (_ternary_element(m, k) for m in (r, c, e))
        assert _ternary_codes([form.add(u, v) for u, v in zip(pr, pc)], rows) == list(map(field.add, r, c))
        assert _ternary_codes([form.neg(u) for u in pr], rows) == list(map(field.neg, r))
        swap = sum(1 << i for i in range(0, rows, 3))  # rows 0, 3, 6, ... take c
        assert _ternary_codes([form.select(swap, u, v) for u, v in zip(pr, pc)], rows) == [
            y if i % 3 == 0 else x for i, (x, y) in enumerate(zip(r, c))]
        out = list(pr)
        form.axpy([out], pc, [engine._multiples(pe, form)])
        assert _ternary_codes(out, rows) == [field.add(x, field.mul(y, z)) for x, y, z in zip(r, c, e)]
        r, c = (m.ravel().tolist() for m in np.meshgrid(*[np.arange(field.q)] * 2))
        scalar = engine._scalar(form, 3)[0]
        digits_of = lambda z: [field.element_vector(field.mul(3**a, z)) for a in range(k)]  # y^a z
        for z in range(field.q):  # a scalar e, given by the digits of y^a e
            out = _ternary_element(r, k)
            scalar.axpy([out], _ternary_element(c, k), [digits_of(z)])
            assert _ternary_codes(out, len(r)) == [field.add(x, field.mul(y, z)) for x, y in zip(r, c)]
        # two rows, r_0 = r and r_1 = c, each plus c e_j for e_0 = z, e_1 = z + 1
        for z in range(field.q):
            z1 = field.add(z, 1)
            outs = [_ternary_element(r, k), _ternary_element(c, k)]
            scalar.axpy(outs, _ternary_element(c, k), [digits_of(z), digits_of(z1)])
            assert _ternary_codes(outs[0], len(r)) == [field.add(x, field.mul(y, z)) for x, y in zip(r, c)]
            assert _ternary_codes(outs[1], len(r)) == [field.add(y, field.mul(y, z1)) for y in c]

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 4), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 4), (5, 3)])
    def test_mulmod_reduce_and_columns_match_scalar(self, k, n):
        # the shared plane functions on the F_3 form, against _poly_mulmod and
        # _poly_powmod row by row; F_9 n <= 4, F_27 and F_243 take x^q by k
        # cubings, the others step their columns up from x; rows of code
        # q - 1 reach every digit 2
        field = build_field(3, k)
        q, rows, form = field.q, 40, engine._form(field)
        rng = np.random.default_rng(q + n)
        a, b, f = rng.integers(0, q, size=(3, n, rows))
        prod = rng.integers(0, q, size=(2 * n - 1, rows))
        for m in (a, b, f, prod):
            m[:, :3] = q - 1
        pf = _ternary_poly(f, k)
        fs = [engine._multiples(e, form) for e in pf]
        got = _ternary_array(engine._mulmod(_ternary_poly(a, k), _ternary_poly(b, k), fs, form), rows)
        reduced = _ternary_array(engine._reduce(_ternary_poly(prod, k), fs, form), rows)
        x = [[(0, 0)] * k for _ in range(n)]
        x[1 % n][0] = (0, (1 << rows) - 1)
        cols = [_ternary_array(col, rows) for col in engine._frobenius_columns(field, x, fs, form)] if n > 1 else []
        for i in range(rows):
            fi = f[:, i].tolist() + [1]
            assert got[:, i].tolist() == ff._poly_mulmod(field, a[:, i].tolist(), b[:, i].tolist(), fi)
            assert reduced[:, i].tolist() == ff._poly_mulmod(field, prod[:, i].tolist(), [1], fi)
            for j, col in enumerate(cols):
                assert col[:, i].tolist() == ff._poly_powmod(field, [0, 1] + [0] * (n - 2), j * q, fi), (i, j)

    def test_scalar_reduce_matches_scalar_rem(self):
        # _reduce on the scalar-axpy form, the trial's remainder by one g, on
        # planes of rows of either form against schoolbook division of each row
        for p, k, n, d in [(3, 1, 9, 4), (3, 2, 5, 2), (3, 3, 4, 1), (2, 1, 9, 4), (2, 2, 5, 2), (2, 4, 4, 1)]:
            field = build_field(p, k)
            q, rows = field.q, 50
            rng = np.random.default_rng(k * 10 + n)
            a = rng.integers(0, q, size=(n + 1, rows))
            g = rng.integers(0, q, size=d).tolist() + [1]
            gs = [[field.element_vector(field.mul(p**j, gi)) for j in range(k)] for gi in g[:d]]
            rem = engine._reduce(_plane_poly(field, a), gs, engine._scalar(engine._form(field), p)[0])
            got = np.array([_plane_codes(field, e, rows) for e in rem])
            for i in range(rows):
                assert got[:, i].tolist() == _scalar_rem(field, a[:, i].tolist(), g)

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 3), (5, 2)])
    def test_coprime_matches_scalar_gcd(self, k, n):
        # the shared divstep finish on the F_3 form, against the scalar gcd,
        # with x dividing both and h = 0 among the rows
        field = build_field(3, k)
        rng = np.random.default_rng(k * 10 + n)
        rows = 300
        f = np.ones((rows, n + 1), dtype=np.int64)
        f[:, :n] = rng.integers(0, field.q, size=(rows, n))
        h = np.zeros_like(f)
        h[:, :n] = rng.integers(0, field.q, size=(rows, n))
        h[: rows // 3, rng.integers(1, n) :] = 0
        f[-10:-5, 0] = h[-10:-5, 0] = 0
        h[-10:-5, 1] = 1
        h[-5:] = 0
        expected = [ff._poly_gcd_is_one(field, fr.tolist(), hr.tolist()) for fr, hr in zip(f, h)]
        verdict = engine._coprime(_ternary_poly(f.T[:n], k), _ternary_poly(h.T[:n], k), (1 << rows) - 1,
                                  engine._form(field))
        assert [bool(verdict >> r & 1) for r in range(rows)] == expected
        assert 0 < sum(expected) < rows - 5


class TestPlaneConstants:
    # the planes take every F_p constant from the fold of the field modulus,
    # so FieldContext's arithmetic checks them and never feeds them
    @pytest.mark.parametrize("p,k,n", [(2, 2, 4), (2, 4, 3), (2, 8, 2), (3, 2, 4), (3, 3, 3)])
    def test_planes_run_without_field_arithmetic(self, monkeypatch, p, k, n):
        # the scalar trial's verdicts first, then both plane tests with
        # FieldContext's _power, mul and element_vector refusing; every field
        # but F_4 takes x^q by k p-th powers
        field = build_field(p, k)
        lo, hi = _sample_range(field, n, min(field.q**n // 2, 400), p * k + n)
        expected = _scalar_flags_block(field, n, lo, hi, "trial")
        for name in ("_power", "mul", "element_vector"):
            monkeypatch.setattr(FieldContext, name, _refuse)
        for method in ("trial", "rabin"):
            assert np.array_equal(_flags(field, n, lo, hi, method), expected), method
        assert expected.any()

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (2, 8), (3, 2), (3, 3), (2, 16)])
    def test_fold_gives_the_powers_of_y(self, p, k):
        # y^b for b <= p (k - 1) by _multiples of 1 on the F_p digit form,
        # whose every p-th, y^(pa), the x^q columns take
        field = build_field(p, k)
        ys = engine._multiples([1] + [0] * (k - 1), engine._scalar(engine._form(field), p)[1], p * (k - 1) + 1)
        assert ys == [list(field.element_vector(field._power(p, b))) for b in range(p * (k - 1) + 1)]


class TestCheckSweep:
    def test_returns_sweep_size(self):
        assert ff.check_sweep(2, 1, 10) == 1024
        assert ff.check_sweep(3, 2, 3, "trial") == 729
        assert ff.check_sweep(2, 1, 63, budget=2**63) == 2**63

    @pytest.mark.parametrize(
        "p,k,n,budget,feasible",
        [
            (2, 10**9, 1, 2**24, 0),
            (2**61 - 1, 1, 1, 2**24, 0),
            (2, 1, 10**12, 2**63, 63),
            (10**50, 3, 5, 10, 0),
        ],
    )
    def test_refuses_huge_sweeps_without_computing_them(self, p, k, n, budget, feasible):
        with pytest.raises(BudgetExceededError, match=f"budget of {budget};.* is {feasible}$"):
            ff.check_sweep(p, k, n, budget=budget)

    def test_budget_beyond_index_range(self):
        with pytest.raises(ValueError, match=str(2**63 + 1)):
            ff.check_sweep(2, 1, 3, budget=2**63 + 1)
        with pytest.raises(ValueError, match="budget 0"):
            ff.check_sweep(2, 1, 3, budget=0)

    def test_invalid_requests(self):
        with pytest.raises(ValueError, match="method"):
            ff.check_sweep(2, 1, 3, "guess")
        with pytest.raises(ValueError, match="degree n"):
            ff.check_sweep(2, 1, 0)
        with pytest.raises(ValueError, match="extension degree"):
            ff.check_sweep(2, 0, 3)
        with pytest.raises(NotPrimeError):
            ff.check_sweep(1, 1, 3)


def _inline_pools(monkeypatch, cpus):
    # count_irreducibles on a machine of cpus CPUs, its pools run here: the
    # list that each pool, with its max_workers and jobs, is appended to
    pools = []

    class InlinePool:  # runs the jobs here and keeps them
        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, jobs):
            self.jobs = list(jobs)
            return map(fn, self.jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(ff.os, "cpu_count", lambda: cpus)
    return pools


class TestCounts:
    @pytest.mark.parametrize(
        "p,k,n,expected", [(2, 1, 1, 2), (2, 1, 4, 3), (2, 2, 2, 6)]
    )
    @pytest.mark.parametrize("method", ["trial", "rabin"])
    def test_examples(self, p, k, n, expected, method):
        field = build_field(p, k)
        assert count_irreducibles(field, n, method=method) == expected

    def test_matches_necklace_formula(self):
        for p, k, max_n in [(2, 1, 10), (3, 1, 6), (2, 2, 4)]:
            field = build_field(p, k)
            for n in range(1, max_n + 1):
                assert count_irreducibles(field, n) == necklace_count(field.q, n)

    def test_partition_identity(self):
        # sum_{d|n} d * count(d) recovers q^n from measured counts
        for p, k, max_n in [(2, 1, 10), (3, 1, 6), (2, 2, 5)]:
            field = build_field(p, k)
            counts = {n: count_irreducibles(field, n) for n in range(1, max_n + 1)}
            for n in range(1, max_n + 1):
                assert sum(d * counts[d] for d in divisors(n)) == field.q**n

    def test_budget_refusal(self):
        field = build_field(2, 1)
        with pytest.raises(BudgetExceededError, match="4096") as refusal:
            count_irreducibles(field, 13, budget=4096)
        assert isinstance(refusal.value, ValueError) and isinstance(refusal.value, RuntimeError)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count_irreducibles(build_field(2, 1), 3, method="guess")

    def test_workers_do_not_change_counts(self):
        field = build_field(2, 1)
        assert count_irreducibles(field, 10, workers=2) == count_irreducibles(field, 10)

    def test_no_workers_refused(self):
        with pytest.raises(ValueError, match="^--workers must be >= 1$"):
            count_irreducibles(build_field(2, 1), 2, workers=0)

    @pytest.mark.parametrize("method,block,jobs", [("rabin", 500, 3), ("trial", 500, 3), ("rabin", 8400, 2)])
    def test_workers_take_whole_blocks(self, monkeypatch, method, block, jobs):
        # F_5 n=5 in blocks of 100 or 1680 Rabin rows, or 5^3 sieve rows
        pools = _inline_pools(monkeypatch, cpus=4)
        monkeypatch.setattr(engine, "_BLOCK", block)
        field = build_field(5, 1)
        assert count_irreducibles(field, 5, method, workers=3) == necklace_count(5, 5)
        [pool] = pools
        step = engine._block_rows(field, 5, method)
        los, his = zip(*(job[2:4] for job in pool.jobs))
        assert pool.max_workers == len(pool.jobs) == jobs
        assert all(lo % step == 0 for lo in los)
        assert (0,) + his == los + (5**5,)

    def test_workers_capped_at_the_cpu_count(self, monkeypatch):
        # F_5 n=5 in 32 Rabin blocks: a million workers get one process a CPU
        pools = _inline_pools(monkeypatch, cpus=3)
        monkeypatch.setattr(engine, "_BLOCK", 500)
        assert count_irreducibles(build_field(5, 1), 5, "rabin", workers=10**6) == necklace_count(5, 5)
        [pool] = pools
        assert pool.max_workers == len(pool.jobs) == 3

    def test_counts_independent_of_modulus(self):
        # representation choice cannot affect the counts: rebuild F_9 and F_8
        # under alternative irreducible moduli and recount
        default_f9 = build_field(3, 2)
        alt_f9 = FieldContext(3, 2, (2, 1, 1))  # x^2 + x + 2
        default_f8 = build_field(2, 3)
        alt_f8 = FieldContext(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
        for n in range(1, 4):
            assert count_irreducibles(alt_f9, n) == count_irreducibles(default_f9, n)
        for n in range(1, 5):
            assert count_irreducibles(alt_f8, n) == count_irreducibles(default_f8, n)


class TestPrimality:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_is_prime_matches_a_sieve(self):
        limit = 10**5
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        assert [n for n in range(limit) if is_prime(n)] == np.nonzero(sieve)[0].tolist()

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong pseudoprimes to bases 2, 3, 5, 7 and to 2 .. 23 respectively
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
        assert not is_prime((2**31 - 1) * (2**32 - 5))
        with pytest.raises(ValueError, match="not decided"):
            is_prime(2**89 - 1)

    def test_large_prime_field_builds_at_once(self):
        start = time.perf_counter()
        field = build_field(2**61 - 1, 1)
        assert time.perf_counter() - start < 0.1
        assert field.q == 2**61 - 1


# fields of the suite with q <= 256, prime fields included
_SUITE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2),
                 (3, 3), (2, 8)]


def _engine_flags(field, n, rows, method):
    return np.array([_flags(field, n, i, i + 1, method)[0] for i in rows])


def _digits(field, codes, dtype=np.int64):
    # element codes (..., rows) -> the engine's element form, their base-p
    # digits (..., k, rows)
    codes = np.asarray(codes, dtype=np.int64)
    return (codes[..., None, :] // field.p ** np.arange(field.k)[:, None] % field.p).astype(dtype)


def _codes(field, digits):
    # inverse of _digits
    return (np.asarray(digits, dtype=np.int64) * field.p ** np.arange(field.k)[:, None]).sum(axis=-2)


def _plane_element(field, codes):
    # element codes over F_(2^k) -> the plane form, bit r of plane i the digit
    # i of codes[r]; over F_(3^k) the two-plane form of _ternary_element
    if field.p == 3:
        return _ternary_element(codes, field.k)
    return [int("".join(str(c >> i & 1) for c in reversed(codes)) or "0", 2) for i in range(field.k)]


def _plane_codes(field, element, rows):
    # inverse of _plane_element for rows codes
    if field.p == 3:
        return _ternary_codes(element, rows)
    digits = [format(plane, f"0{rows}b")[::-1] for plane in element]
    return [sum(int(digits[i][r]) << i for i in range(field.k)) for r in range(rows)]


def _plane_poly(field, codes):
    # (n, rows) codes -> a polynomial of plane elements
    return [_plane_element(field, np.asarray(row).tolist()) for row in codes]


class TestLogTableEngine:
    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 2), (2, 4)])
    @pytest.mark.parametrize("method", ["trial", "rabin"])
    def test_matches_scalar_oracle_exhaustively(self, p, k, method):
        field = build_field(p, k)
        n = 1
        while field.q**n <= 1 << 12:
            total = field.q**n
            assert np.array_equal(_flags(field, n, 0, total, method),
                                  _scalar_flags_block(field, n, 0, total, method)), n
            n += 1

    def test_f289_with_two_workers(self):
        assert count_irreducibles(build_field(17, 2), 2, workers=2) == 41616

    def test_f512_sampled_rows(self):
        field = build_field(2, 9)
        assert count_irreducibles(field, 2) == necklace_count(512, 2)
        rng = np.random.default_rng(5)
        rows = [0, 1, 512**2 - 1] + [int(i) for i in rng.integers(0, 512**2, size=8)]
        for method in ("trial", "rabin"):
            expected = np.array([_scalar_flags_block(field, 2, i, i + 1, method)[0] for i in rows])
            assert np.array_equal(_engine_flags(field, 2, rows, method), expected), method

    def test_large_characteristic(self):
        # q > 2n builds the Frobenius columns from x^q by square and multiply
        assert count_irreducibles(build_field(257, 1), 2) == necklace_count(257, 2)
        field = build_field(4093, 1)
        rng = np.random.default_rng(9)
        rows = [int(i) for i in rng.integers(4093, 4093**2, size=12)]
        expected = np.array([_scalar_flags_block(field, 2, i, i + 1, "rabin")[0] for i in rows])
        assert np.array_equal(_engine_flags(field, 2, rows, "rabin"), expected)
        assert expected.any() and not expected.all()

    def test_no_scalar_path_above_256(self, monkeypatch):
        f289, f512 = build_field(17, 2), build_field(2, 9)
        for name in ("is_irreducible_trial", "is_irreducible_rabin"):
            monkeypatch.setattr(ff, name, _refuse)
        assert count_irreducibles(f289, 2) == 41616
        rows = range(1000, 1040)
        assert np.array_equal(_engine_flags(f512, 2, rows, "trial"),
                              _engine_flags(f512, 2, rows, "rabin"))

    @pytest.mark.parametrize("p,k", _SUITE_FIELDS)
    def test_tables_match_direct_arithmetic(self, p, k):
        # the engine's digit and plane arithmetic, which build no table, on
        # every pair of elements and the inverse of every nonzero one, against
        # FieldContext; the plane form never divides, so there each nonzero
        # element's product with its inverse is checked to be 1
        field = build_field(p, k)
        q = field.q
        a, b = (m.ravel() for m in np.meshgrid(np.arange(q), np.arange(q)))
        if p == 2:
            pa, pb = _plane_element(field, a.tolist()), _plane_element(field, b.tolist())
            prod = [0] * k
            engine._axpy([prod], pa, [engine._multiples(pb, engine._form(field))])
            products = _plane_codes(field, prod, q * q)
            assert products == [field.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
            assert _plane_codes(field, [u ^ v for u, v in zip(pa, pb)], q * q) == (a ^ b).tolist()
            inverses = {y: x for x, y, z in zip(a.tolist(), b.tolist(), products) if z == 1}
            assert inverses == {x: field.inv(x) for x in range(1, q)}
            return
        ar = digits._Arith(field)
        dtype = ar.check_headroom(1)
        da, db = _digits(field, a, dtype), _digits(field, b, dtype)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert _codes(field, ar.mul(da, db)).tolist() == [field.mul(x, y) for x, y in pairs]
        assert _codes(field, ar.sub(da, db)).tolist() == [field.sub(x, y) for x, y in pairs]
        nonzero = _digits(field, np.arange(1, q), dtype)
        inv = np.broadcast_to(digits._power(ar, nonzero, q - 2), nonzero.shape)
        assert _codes(field, inv).tolist() == [field.inv(x) for x in range(1, q)]

    @pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)])
    def test_axpy_on_all_triples(self, p, k):
        # r - c g against the multiples y^a g, zero operands included, and by
        # a multiplier in F_p, a single digit row (one nonzero plane over
        # F_(2^k)); odd p leaves r unreduced until reduce
        field = build_field(p, k)
        r, c, g = (m.ravel() for m in np.meshgrid(*[np.arange(field.q)] * 3))
        if p == 2:
            for mult in (c, c % p):
                out = _plane_element(field, r.tolist())
                engine._axpy([out], _plane_element(field, mult.tolist()),
                             [engine._multiples(_plane_element(field, g.tolist()), engine._form(field))])
                assert _plane_codes(field, out, r.size) == [field.sub(x, field.mul(y, z))
                                                            for x, y, z in zip(r.tolist(), mult.tolist(), g.tolist())]
            return
        ar = digits._Arith(field)
        dtype = ar.check_headroom(1)
        out = _digits(field, r, dtype)
        ar.axpy(out, _digits(field, c, dtype), ar.multiples(_digits(field, g, dtype)))
        assert _codes(field, ar.reduce(out)).tolist() == [field.sub(x, field.mul(y, z))
                                                         for x, y, z in zip(r.tolist(), c.tolist(), g.tolist())]
        out = _digits(field, r, dtype)
        ar.axpy(out, (c % p).astype(dtype)[None], ar.multiples(_digits(field, g, dtype)))
        assert _codes(field, ar.reduce(out)).tolist() == [field.sub(x, field.mul(y % p, z))
                                                         for x, y, z in zip(r.tolist(), c.tolist(), g.tolist())]

    @pytest.mark.parametrize("p,k", [(3, 1), (65521, 1), (2, 2), (3, 2), (17, 2)])
    def test_mulmod_and_reduce_match_scalar(self, p, k):
        # coefficient-major blocks against _poly_mulmod column by column, on
        # the plane form of p <= 3 and the digits of odd p, both over F_3 and
        # F_9; columns of code q - 1 (every digit p - 1) reach the largest lazy
        # intermediates
        field = build_field(p, k)
        q, n, rows = field.q, 4, 60
        rng = np.random.default_rng(p + k)
        a, b, f = rng.integers(0, q, size=(3, n, rows))
        prod = rng.integers(0, q, size=(2 * n - 1, rows))
        for m in (a, b, f, prod):
            m[:, :5] = q - 1
        results = []
        if p <= 3:
            form = engine._form(field)
            fs = [engine._multiples(e, form) for e in _plane_poly(field, f)]
            got = engine._mulmod(_plane_poly(field, a), _plane_poly(field, b), fs, form)
            reduced = engine._reduce(_plane_poly(field, prod), fs, form)
            results.append([np.array([_plane_codes(field, e, rows) for e in m]) for m in (got, reduced)])
        if p >= 3:
            ar = digits._Arith(field)
            da, db, df, dprod = (_digits(field, m) for m in (a, b, f, prod))
            fs = ar.multiples(df)
            results.append([_codes(field, digits._mulmod(ar, da, ar.multiples(ar.sub(0, db)), fs)),
                            _codes(field, digits._reduce(ar, dprod, fs))])
        for got, reduced in results:
            for i in range(rows):
                fi = f[:, i].tolist() + [1]
                assert got[:, i].tolist() == ff._poly_mulmod(field, a[:, i].tolist(), b[:, i].tolist(), fi)
                assert reduced[:, i].tolist() == ff._poly_mulmod(field, prod[:, i].tolist(), [1], fi)

    # q = 2n (F_4 n = 2, F_16 n = 8) is the last to step its columns up from
    # x, q = 2n + 1 (F_5 n = 2, F_17 n = 8) the first to multiply them from x^q;
    # the plane forms take x^q by k p-th powers, odd k among them (F_8, F_32,
    # F_27, F_243)
    @pytest.mark.parametrize("p,k,n", [(2, 1, 2), (2, 1, 5), (2, 1, 9), (3, 1, 4), (7, 1, 4), (2, 2, 2),
                                       (2, 4, 8), (3, 2, 5), (5, 1, 2), (17, 1, 8), (2, 4, 3), (5, 2, 2),
                                       (2, 8, 2), (2, 3, 2), (2, 5, 3), (3, 3, 2), (3, 5, 3)])
    def test_frobenius_columns_match_scalar_powers(self, p, k, n):
        # C_i = x^(iq) mod f on the plane form of p <= 3, and -C_i on the
        # digits of odd p, both over F_3 and F_(3^k), against _poly_powmod row
        # by row; rows of f of code q - 1 reach the largest lazy intermediates
        field = build_field(p, k)
        q, rows = field.q, 70
        f = np.random.default_rng(q + n).integers(0, q, size=(n, rows))
        f[:, :5] = q - 1
        results = []
        if p <= 3:
            form = engine._form(field)
            x = [[form.zero] * k for _ in range(n)]
            x[1][0] = form.one((1 << rows) - 1)
            fs = [engine._multiples(e, form) for e in _plane_poly(field, f)]
            cols = engine._frobenius_columns(field, x, fs, form)
            results.append((1, np.array([[_plane_codes(field, e, rows) for e in col] for col in cols])))
        if p >= 3:
            ar = digits._Arith(field)
            dtype = ar.check_headroom(3 * n - 1)
            df = _digits(field, f, dtype)
            x = np.zeros_like(df)
            x[1, 0] = 1
            cols = digits._frobenius_columns(ar, q, x, ar.multiples(df))
            assert cols.dtype == dtype and cols.shape == (n, n, k, rows)
            results.append((-1, _codes(field, cols)))
        for sign, cols in results:
            assert cols.shape == (n, n, rows)
            for r in range(rows):
                fr = f[:, r].tolist() + [1]
                for i in range(n):
                    power = ff._poly_powmod(field, [0, 1] + [0] * (n - 2), i * q, fr)
                    assert cols[i, :, r].tolist() == [field.mul(sign % p, c) for c in power], (sign, r, i)

    def test_lazy_reduction_bound_is_checked(self):
        # (width + n) (p - 1)^2 past 2^62 is refused; with no rows the arrays
        # stay empty, and with width = n there is no step to run
        ar = digits._Arith(build_field(65521, 1))
        empty = np.zeros((1 << 30, 1, 0), dtype=np.int64)
        assert (2 << 30) * 65520**2 >= 1 << 62
        with pytest.raises(OverflowError):
            digits._reduce(ar, empty, ar.multiples(empty))

    def test_headroom_checked_by_ladder_and_sieve(self, monkeypatch):
        # both paths that leave odd-p values unreduced ask the one check
        calls = []
        monkeypatch.setattr(digits._Arith, "check_headroom", lambda ar, terms, dtype=None: calls.append(terms))
        field = build_field(3, 1)
        ar = digits._Arith(field)
        digits._reduce(ar, np.ones((7, 1, 2), dtype=np.int64), ar.multiples(np.ones((4, 1, 2), dtype=np.int64)))
        assert calls == [11]
        digits._sieve_block(field, 4, 4, 0, [])
        assert calls == [11, 5]

    @pytest.mark.parametrize("p,k", [(2, 16), (3, 10)])
    def test_tables_sampled_at_the_field_limit(self, p, k):
        # sub, mul, axpy and the inverse on sampled elements of the largest
        # extensions, zero and q - 1 among them; the plane form never
        # divides, so there each product with the inverse is checked to be 1
        field = build_field(p, k)
        rng = np.random.default_rng(3)
        a, b, c = rng.integers(0, field.q, size=(3, 200))
        a[:3] = [0, 1, field.q - 1]
        b[3:5] = [0, a[4]]
        if p == 2:
            form, (pa, pb, pc) = engine._form(field), (_plane_element(field, m.tolist()) for m in (a, b, c))
            triples = list(zip(a.tolist(), b.tolist(), c.tolist()))
            assert _plane_codes(field, [u ^ v for u, v in zip(pa, pb)], 200) == [field.sub(x, y) for x, y, _ in triples]
            prod = [0] * k
            engine._axpy([prod], pa, [engine._multiples(pb, form)])
            assert _plane_codes(field, prod, 200) == [field._mul_direct(x, y) for x, y, _ in triples]
            engine._axpy([pc], pa, [engine._multiples(pb, form)])
            assert _plane_codes(field, pc, 200) == [field.sub(z, field._mul_direct(x, y)) for x, y, z in triples]
            nonzero = a[a > 0].tolist()
            prod = [0] * k
            inv = _plane_element(field, [field.inv(x) for x in nonzero])
            engine._axpy([prod], _plane_element(field, nonzero), [engine._multiples(inv, form)])
            assert _plane_codes(field, prod, len(nonzero)) == [1] * len(nonzero)
            return
        ar = digits._Arith(field)
        dtype = ar.check_headroom(1)
        da, db, dc = (_digits(field, m, dtype) for m in (a, b, c))
        triples = list(zip(a.tolist(), b.tolist(), c.tolist()))
        assert _codes(field, ar.sub(da, db)).tolist() == [field.sub(x, y) for x, y, _ in triples]
        assert _codes(field, ar.mul(da, db)).tolist() == [field._mul_direct(x, y) for x, y, _ in triples]
        ar.axpy(dc, da, ar.multiples(db))
        assert _codes(field, ar.reduce(dc)).tolist() == [field.sub(z, field._mul_direct(x, y)) for x, y, z in triples]
        nonzero = a[a > 0]
        inv = _codes(field, digits._power(ar, _digits(field, nonzero, dtype), field.q - 2))
        assert inv.tolist() == [field.inv(x) for x in nonzero.tolist()]

    @pytest.mark.parametrize("p,k,n", [(2, 1, 6), (3, 1, 5), (2, 2, 4), (3, 2, 3), (2, 8, 2), (17, 2, 2),
                                       (3, 5, 2)])
    def test_batched_finish_matches_scalar_gcd(self, p, k, n):
        # the divstep finish, on digit arrays over odd p and on the plane
        # forms of F_(2^k) and F_(3^k), both over F_3, F_9 and F_243, against
        # the scalar gcd
        field = build_field(p, k)
        rng = np.random.default_rng(p * 100 + k * 10 + n)
        rows = 300
        f = np.ones((rows, n + 1), dtype=np.int64)
        f[:, :n] = rng.integers(0, field.q, size=(rows, n))
        h = np.zeros_like(f)
        h[:, :n] = rng.integers(0, field.q, size=(rows, n))
        h[: rows // 3, rng.integers(1, n) :] = 0  # lower degrees
        f[-10:-5, 0] = h[-10:-5, 0] = 0  # x divides both
        h[-10:-5, 1] = 1
        h[-5:] = 0  # gcd(f, 0) = f has degree n
        expected = [ff._poly_gcd_is_one(field, fr.tolist(), hr.tolist()) for fr, hr in zip(f, h)]
        verdicts = []
        if p <= 3:
            form, pf, ph = engine._form(field), _plane_poly(field, f.T[:n]), _plane_poly(field, h.T[:n])
            verdict = engine._coprime(pf, ph, (1 << rows) - 1, form)
            verdicts.append(np.array([verdict >> r & 1 for r in range(rows)], dtype=bool))
            assert engine._coprime(pf, ph, 0, form) == 0  # no rows
        if p >= 3:
            ar = digits._Arith(field)
            df, dh = _digits(field, f.T), _digits(field, h.T)
            verdicts.append(digits._coprime(ar, df, dh))
            assert digits._coprime(ar, df[..., :0], dh[..., :0]).shape == (0,)
        for got in verdicts:
            assert got.tolist() == expected
            assert not got[-10:].any()
            assert 0 < got.sum() < rows - 5

    def test_arith_builds_no_table(self):
        # an O(q) table on either field would take at least 2^16 entries: the
        # digit arithmetic of F_65521 is built in under 4 KB, and a whole
        # Rabin verdict on one plane row of F_(2^16) peaks under 64 KB
        f65536, f65521 = build_field(2, 16), build_field(65521, 1)
        tracemalloc.start()
        try:
            arith = digits._Arith(f65521)
            size, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            engine._rabin_flags_block(f65536, 2, 65539, 65540)
            plane_size, plane_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arith.p == 65521 and peak < 4096, (size, peak)
        assert plane_peak < 1 << 16, (plane_size, plane_peak)


# (p, k, n, dtype of the Rabin ladder's blocks).  Its largest _reduce takes
# 3n - 1 terms whether the Frobenius columns are stepped up from x (q <= 2n)
# or multiplied from x^q, each of k digit products; neighbouring cases
# sit on either side of the int16 or int32 edge.
_LADDER_WIDTHS = [
    (3, 1, 10, np.int16),      # 29 terms of 2^2
    (13, 1, 7, np.int16),      # 20 terms of 12^2
    (17, 1, 9, np.int16),      # 26 terms of 16^2 = 6,656
    (19, 1, 12, np.int16),     # 35 * 18^2 = 11,340 < 2^14, stepped
    (23, 1, 12, np.int32),     # 35 * 22^2 = 16,940, stepped
    (43, 1, 3, np.int16),      # 8 * 42^2 = 14,112 < 2^14
    (47, 1, 3, np.int32),      # 8 * 46^2 = 16,928
    (53, 1, 2, np.int16),      # 5 * 52^2 = 13,520 < 2^14
    (59, 1, 2, np.int32),      # 5 * 58^2 = 16,820
    (4093, 1, 2, np.int32),
    (11579, 1, 3, np.int32),   # 8 * 11578^2 < 2^30
    (11587, 1, 3, np.int64),   # 8 * 11586^2 >= 2^30
    (14653, 1, 2, np.int32),   # 5 * 14652^2 < 2^30
    (14657, 1, 2, np.int64),   # 5 * 14656^2 >= 2^30
    (3, 2, 5, np.int16),       # 14 * 2 * 2^2; F_(2^k) runs on bit planes
    (41, 2, 2, np.int16),      # 5 * 2 * 40^2 = 16,000 < 2^14
    (43, 2, 2, np.int32),      # 5 * 2 * 42^2 = 17,640
]
# (p, k, n, dtype of the sieve's blocks), from n + 1 terms
_SIEVE_WIDTHS = [
    (3, 1, 10, np.int16),
    (73, 1, 2, np.int16),                # 3 * 72^2 = 15,552 < 2^14
    (79, 1, 2, np.int32),                # 3 * 78^2 = 18,252
    (4093, 1, 2, np.int32),
    (18919, 1, 2, np.int32),             # 3 * 18918^2 < 2^30
    (18947, 1, 2, np.int64),             # 3 * 18946^2 >= 2^30
    (53, 2, 2, np.int16),                # 3 * 2 * 52^2 = 16,224 < 2^14
    (59, 2, 2, np.int32),                # 3 * 2 * 58^2 = 20,184
]
_WIDTHS = [np.int16, np.int32, np.int64]


def _assert_narrowest(p, k, terms, dtype):
    # terms products, each of k digit products within (p - 1)^2 of zero, sum
    # below 2^(bits - 2) in dtype, and not in the next narrower one
    i, bound = _WIDTHS.index(dtype), terms * k * (p - 1) ** 2
    assert bound < 1 << (np.iinfo(dtype).bits - 2)
    assert i == 0 or bound >= 1 << (np.iinfo(_WIDTHS[i - 1]).bits - 2)


def _scalar_rem(field, a, f):
    # a mod monic f by schoolbook division on single field elements
    a, n = list(a), len(f) - 1
    for j in range(len(a) - 1, n - 1, -1):
        lead, a[j] = a[j], 0
        for i in range(n):
            a[j - n + i] = field.sub(a[j - n + i], field.mul(lead, f[i]))
    return a[:n]


def _sample_range(field, n, rows, seed):
    # a contiguous window of rows with c_0 != 0
    q = field.q
    lo = int(np.random.default_rng(seed).integers(q ** (n - 1), q**n - rows))
    return lo, lo + rows


class TestNarrowCodes:
    @pytest.mark.parametrize("p,k,n,dtype", _LADDER_WIDTHS)
    def test_ladder_blocks_take_the_narrowest_width(self, monkeypatch, p, k, n, dtype):
        field = build_field(p, k)
        ar = digits._Arith(field)
        _assert_narrowest(p, k, 3 * n - 1, dtype)
        assert ar.check_headroom(3 * n - 1) == dtype
        seen = set()
        reduce = digits._reduce

        def spy(ar, prod, f):
            seen.add(prod.dtype)
            return reduce(ar, prod, f)

        monkeypatch.setattr(digits, "_reduce", spy)
        # the scalar Rabin test runs about n powerings per row
        lo, hi = _sample_range(field, n, 200 if n < 12 and (k == 1 or field.q < 1000) else 60, p + n)
        got = _bits(digits._rabin_flags_block(field, n, lo, hi), hi - lo)
        expected = _scalar_flags_block(field, n, lo, hi, "rabin")
        assert seen == {np.dtype(dtype)}
        assert np.array_equal(got, expected)
        assert expected.any() and not expected.all()

    @pytest.mark.parametrize("p,k,n,dtype", _LADDER_WIDTHS)
    def test_mulmod_and_reduce_at_the_width(self, p, k, n, dtype):
        # columns of code q - 1 (every digit p - 1) reach the largest lazy
        # intermediates the width must hold; _mulmod reduces 2n - 1
        # coefficients, a column step n + 1 to 2n - 1
        field = build_field(p, k)
        ar = digits._Arith(field)
        q, rows = field.q, 30
        rng = np.random.default_rng(p * 10 + n)
        a, b, f = rng.integers(0, q, size=(3, n, rows))
        prod = rng.integers(0, q, size=(2 * n - 1, rows))
        for m in (a, b, f, prod):
            m[:, :5] = q - 1
        da, db, df, dprod = (_digits(field, m, dtype) for m in (a, b, f, prod))
        fs = ar.multiples(df)
        got = digits._mulmod(ar, da, ar.multiples(ar.sub(0, db)), fs)
        assert got.dtype == dtype
        got = _codes(field, got)
        for width in (2 * n - 1, n + 1):
            reduced = digits._reduce(ar, dprod[:width].copy(), fs)
            assert reduced.dtype == dtype
            reduced = _codes(field, reduced)
            for i in range(rows):
                fi = f[:, i].tolist() + [1]
                assert reduced[:, i].tolist() == _scalar_rem(field, prod[:width, i].tolist(), fi)
        for i in range(rows):
            fi = f[:, i].tolist() + [1]
            assert got[:, i].tolist() == ff._poly_mulmod(field, a[:, i].tolist(), b[:, i].tolist(), fi)
        if dtype is not np.int16:
            narrower = _WIDTHS[_WIDTHS.index(dtype) - 1]
            with pytest.raises(OverflowError):
                digits._reduce(ar, dprod.astype(narrower), fs.astype(narrower))

    @pytest.mark.parametrize("p,k,n,dtype", _SIEVE_WIDTHS)
    def test_sieve_blocks_take_the_narrowest_width(self, monkeypatch, p, k, n, dtype):
        field = build_field(p, k)
        ar = digits._Arith(field)
        _assert_narrowest(p, k, n + 1, dtype)
        assert ar.check_headroom(n + 1) == dtype
        seen = set()
        sieve_block = digits._sieve_block

        def spy(field, n, s, base, factors):
            seen.update(y_g.dtype for y_g, _ in factors)
            return sieve_block(field, n, s, base, factors)

        monkeypatch.setattr(digits, "_sieve_block", spy)
        monkeypatch.setattr(engine, "_trial_planes", digits._trial_sieve)  # p = 3 sweeps run on planes
        # the scalar trial test tries every divisor, so few rows for large p
        lo, hi = _sample_range(field, n, 200 if field.q < 1000 else 16, p + n)
        got = _flags(field, n, lo, hi, "trial")
        expected = _scalar_flags_block(field, n, lo, hi, "trial")
        assert seen == {np.dtype(dtype)}
        assert np.array_equal(got, expected)
        assert expected.any() and not expected.all()
        if dtype is not np.int16:
            narrower = _WIDTHS[_WIDTHS.index(dtype) - 1]
            with pytest.raises(OverflowError):
                sieve_block(field, n, 1, 0, [(np.ones((1, 2, k, 3), dtype=narrower), None)])


class TestEngineFieldLimit:
    def test_refuses_large_fields_above_degree_one(self):
        with pytest.raises(ValueError, match="2\\^16"):
            ff.check_sweep(2, 17, 2, budget=2**40)
        with pytest.raises(ValueError, match="2\\^16"):
            ff.check_sweep(257, 2, 2, budget=2**40)
        assert ff.check_sweep(2, 16, 2, budget=2**40) == 2**32
        assert ff.check_sweep(65521, 1, 2, budget=2**40) == 65521**2

    def test_degree_one_answered_for_any_field(self, monkeypatch):
        # n = 1 never reaches the engine
        monkeypatch.setattr(engine, "_flags_range", _refuse)
        start = time.perf_counter()
        field = build_field(2, 20)
        assert count_irreducibles(field, 1, budget=2**20) == 2**20
        assert count_irreducibles(field, 1, budget=2**20, workers=2) == 2**20
        assert time.perf_counter() - start < 1.0

    def test_degree_one_flags_refused_above_the_engine_limit(self):
        # n = 1 answers every row of the largest field the engine sweeps
        flags = _flags(build_field(2, 16), 1, 0, 2**16, "rabin")
        assert flags.size == 65536 and flags.all()

    @pytest.mark.parametrize("method", ["trial", "rabin"])
    def test_worker_keeps_the_callers_modulus(self, monkeypatch, method):
        # x^2 + x + 2 is not the modulus build_field picks for F_9, and the
        # worker must neither search for one nor replace it
        field = FieldContext(3, 2, (2, 1, 1))
        assert field.modulus != build_field(3, 2).modulus
        monkeypatch.setattr(engine, "build_field", _refuse, raising=False)
        monkeypatch.setattr(ff, "build_field", _refuse)
        monkeypatch.setattr(ff, "_smallest_irreducible", _refuse)
        monkeypatch.setattr(ff, "is_prime", _refuse)  # nor validate the field again
        job = pickle.loads(pickle.dumps((field, 3, 0, 9**3, method)))  # as a pool worker gets it
        assert job[0].modulus == (2, 1, 1)
        assert engine._count_range(job) == necklace_count(9, 3)
