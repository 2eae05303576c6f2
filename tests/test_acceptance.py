"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings on stdout.
"""

import cmath
import random
import time

from neckprod import engine
from neckprod.exact import build_necklace_table, divisors, mobius_sieve, necklace_count
from neckprod.finitefield import build_field
from neckprod.series import ExponentSpec, expand_direct, expand_recursive
from neckprod.verify import verify_count_bridge, verify_numeric, verify_symbolic

SEED = 0x5EAC1E


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num}] {name}: {verdict} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_symbolic_identity():
    start = time.perf_counter()
    ok = True
    for a in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27):
        report = verify_symbolic(a, 64, cross_check=True)
        expected = (1, -a) + (0,) * 63
        spec = ExponentSpec(
            exponents=build_necklace_table(a, 64).values, necklace_base=a
        )
        ok = ok and report.passed
        ok = ok and expand_recursive(spec).coeffs == expected
        ok = ok and expand_direct(spec).coeffs == expected
    _report(1, "symbolic identity over 11 bases at degree 64", ok, time.perf_counter() - start, 5.0)


def test_criterion_2_count_bridge():
    start = time.perf_counter()
    ok = True
    for p, k, n_max in [(2, 1, 14), (3, 1, 9), (2, 2, 6), (5, 1, 6), (7, 1, 5), (3, 2, 4)]:
        report = verify_count_bridge(p, k, n_max, workers=1)
        ok = ok and report.passed
    first_eight = [necklace_count(2, n) for n in range(1, 9)]
    ok = ok and first_eight == [2, 1, 2, 3, 6, 9, 18, 30]
    bridge_f2 = verify_count_bridge(2, 1, 8)
    ok = ok and [m for _, _, m in bridge_f2.rows] == [2, 1, 2, 3, 6, 9, 18, 30]
    _report(2, "exhaustive counts equal necklace formula", ok, time.perf_counter() - start, 120.0)


def test_criterion_3_inversion_and_congruence():
    start = time.perf_counter()
    ok = True
    for a in (2, 3, 5, 10):
        table = build_necklace_table(a, 64)
        for n in range(1, 65):
            if sum(d * table.value(d) for d in divisors(n)) != a**n:
                ok = False
    mu = mobius_sieve(200)
    divisor_lists = {n: divisors(n) for n in range(1, 201)}
    for a in range(1, 51):
        powers = [1] * 201
        for d in range(1, 201):
            powers[d] = powers[d - 1] * a
        for n in range(1, 201):
            total = sum(mu[n // d] * powers[d] for d in divisor_lists[n])
            if total % n != 0:
                ok = False
    _report(3, "Mobius inversion and Gauss congruence suites", ok, time.perf_counter() - start, 10.0)


def test_criterion_4_numeric_regime():
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for _ in range(1000):
        a = rng.choice([2, 3, 5])
        radius = rng.uniform(0.0, 0.9 / a)
        z = radius * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))
        report = verify_numeric(a, z, 80)
        if not (report.passed and report.residual <= report.tail_bound + report.float_slack):
            ok = False
    fixed = verify_numeric(2, 0.3, 60)
    ok = ok and fixed.residual <= 1e-12
    _report(4, "1000 random points within tail bound plus slack", ok, time.perf_counter() - start, 30.0)


def _verdicts(field, n, method):
    # the engine's verdicts on every monic degree-n polynomial as one int,
    # bit r for the polynomial of enumeration index r
    cuts, masks = engine._flags_range(field, n, 0, field.q**n, method)
    return sum(mask << a for (a, _), mask in zip(cuts, masks))


def test_criterion_5_test_agreement():
    start = time.perf_counter()
    ok = True
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        field = build_field(p, k)
        n = 1
        while field.q**n <= 1 << 16:
            if _verdicts(field, n, "trial") != _verdicts(field, n, "rabin"):
                ok = False
            n += 1
    _report(5, "trial and Rabin agree on all monic polys with q^deg <= 2^16", ok, time.perf_counter() - start, 120.0)


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(SEED + 6)
    ok = True
    for _ in range(500):
        D = rng.randint(1, 24)
        exponents = tuple(rng.randint(-5, 5) for _ in range(D))
        spec = ExponentSpec(exponents=exponents)
        if expand_recursive(spec).coeffs != expand_direct(spec).coeffs:
            ok = False
    _report(6, "500 random exponent specs expand identically", ok, time.perf_counter() - start, 10.0)
