"""Tests for the symbolic and numeric identity verifiers and the count bridge."""

import cmath
import json
import math
import random
from fractions import Fraction

import pytest

import neckprod.finitefield as finitefield
import neckprod.verify as verify
from neckprod.cli import run
from neckprod.exact import necklace_count
from neckprod.finitefield import BudgetExceededError, FieldContext, MonicPoly, build_field
from neckprod.series import ExponentSpec, TruncatedSeries
from neckprod.verify import (
    BridgeReport,
    NumericReport,
    SymbolicReport,
    necklace_exponent_spec,
    tail_bound,
    verify_count_bridge,
    verify_numeric,
    verify_symbolic,
)


class TestVerifySymbolic:
    def test_base_two(self):
        report = verify_symbolic(2, 32)
        assert report.passed
        assert report.first_failure is None

    def test_base_one_degenerates(self):
        # the product is literally 1 - z
        report = verify_symbolic(1, 8)
        assert report.passed

    def test_prime_power_base(self):
        assert verify_symbolic(9, 16, cross_check=True).passed

    @pytest.mark.parametrize("a", range(2, 10))
    def test_recursive_direct_agreement(self, a):
        report = verify_symbolic(a, 32, cross_check=True)
        assert report.passed and report.cross_checked

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_symbolic(0, 8)
        with pytest.raises(ValueError):
            verify_symbolic(2, 0)

    def test_cross_check_size_limit(self, monkeypatch):
        # D^2 log2(a) <= the limit is admitted; past it the refusal names the
        # largest feasible degree and comes before any work
        feasible = math.isqrt(verify._DIRECT_LIMIT)  # log2(2) = 1
        verify._check_direct(2, feasible)
        monkeypatch.setattr(verify, "necklace_exponent_spec", _refuse)
        with pytest.raises(ValueError, match=f"largest feasible degree is {feasible}$"):
            verify_symbolic(2, feasible + 1, cross_check=True)
        with pytest.raises(ValueError, match="largest feasible degree is 0$"):
            verify_symbolic(2 ** (verify._DIRECT_LIMIT + 1), 1, cross_check=True)

    @pytest.mark.parametrize("a,degree", [(1, 10**9), (2, 300), (3, 300), (3, 400), (2, 3000)])
    def test_direct_sizes_admitted(self, a, degree):
        # the direct expansions of perfbench's identity workload, one near the
        # limit, and base 1, whose product has a single factor
        verify._check_direct(a, degree)

    def test_json_shape(self):
        d = verify_symbolic(2, 8).to_json_dict()
        assert d["schema"] == "verify.symbolic"
        assert d["pass"] is True
        assert d["base"] == "2"

    def test_necklace_spec_flagged(self):
        spec = necklace_exponent_spec(5, 10)
        assert spec.necklace_base == 5
        assert spec.exponents[0] == 5


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the size check")


class TestTailBound:
    def test_frozen_closed_form(self):
        # independent evaluation of the majorant (0.6)^61 / (61 * 0.7 * 0.4)
        expected = 0.6**61 / (61 * 0.7 * 0.4)
        got = tail_bound(2, 0.3, 60)
        assert got <= 1e-12
        assert expected <= got <= expected * (1 + 1e-6)

    def test_small_radius(self):
        assert tail_bound(3, 0.1, 40) <= 1e-20

    def test_monotone_decreasing_in_degree(self):
        previous = None
        for D in [5, 10, 20, 40, 80, 160]:
            bound = tail_bound(2, 0.3, D)
            if previous is not None:
                assert bound < previous
            previous = bound

    def test_rejects_outside_regime(self):
        with pytest.raises(ValueError):
            tail_bound(2, 0.5, 10)
        with pytest.raises(ValueError):
            tail_bound(2, 0.51, 10)
        with pytest.raises(ValueError):
            tail_bound(1, 0.1, 10)
        with pytest.raises(ValueError):
            tail_bound(3, -0.1, 10)


class TestVerifyNumeric:
    def test_origin_is_exact(self):
        report = verify_numeric(2, 0.0, 16)
        assert report.passed
        assert report.residual == 0.0
        assert report.value_series == 1.0
        assert report.value_product == 1.0

    def test_real_point(self):
        report = verify_numeric(2, 0.25, 40)
        assert report.passed
        assert abs(report.value_product - 0.5) < 1e-9
        assert report.target == 0.5

    def test_complex_point(self):
        report = verify_numeric(3, 0.1 + 0.1j, 50)
        assert report.passed
        assert report.target == 1 - 3 * (0.1 + 0.1j)

    def test_tight_fixed_case(self):
        assert verify_numeric(2, 0.3, 60).residual <= 1e-12

    def test_regime_rejection_cites_hypothesis(self):
        with pytest.raises(ValueError, match=r"\|z\| < 1/a"):
            verify_numeric(2, 0.6, 10)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            verify_numeric(1, 0.1, 10)

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0.1, math.nan), complex(math.inf, math.nan)])
    def test_nan_refused_before_the_table(self, monkeypatch, z):
        # a * |z| >= 1 is False for NaN: refused by its own check, naming z,
        # before the necklace table is built
        monkeypatch.setattr(verify, "necklace_exponent_spec", lambda *args: pytest.fail("table built"))
        with pytest.raises(ValueError, match=r"^z must not have a NaN part, got z="):
            verify_numeric(2, z, 29000)

    @pytest.mark.parametrize("z,degree", [(0.4995, 1), (0.4999j, 3), (0.5 - 1e-12, 29000)])
    def test_tail_bound_past_the_float_range_refused(self, monkeypatch, z, degree):
        # near |z| = 1/a at a low degree exp(B_log) overflows: refused before
        # the table, not raised from math.expm1 as an OverflowError
        monkeypatch.setattr(verify, "necklace_exponent_spec", lambda *args: pytest.fail("table built"))
        with pytest.raises(ValueError, match=r"^the tail bound at z=.* overflows a float at degree"):
            verify_numeric(2, z, degree)

    @pytest.mark.parametrize("a,z,degree", [(868, 0.875 / 868, 108), (2**20, 0.9 / 2**20, 60),
                                            (1000, 0.0009 + 0.0003j, 200)])
    def test_powers_of_z_past_the_float_range(self, a, z, degree):
        # z^n leaves the normal floats while N(a, n) z^n, about (a z)^n / n,
        # still counts: a subnormal z^n put errors past the float slack into
        # the literal product, and only the tail may separate it from 1 - a z
        report = verify_numeric(a, z, degree)
        assert report.passed and report.residual <= report.tail_bound

    @pytest.mark.parametrize("a,bits", [(10**400, 1329), (2**1023, 1024)])
    def test_bases_past_the_float_range_refused(self, a, bits):
        # refused before any float arithmetic, which would overflow at a * rho
        for check in (lambda: verify_numeric(a, 0.0, 1), lambda: tail_bound(a, 0.0, 1)):
            with pytest.raises(ValueError, match=f"a < 2\\^1023, the float range; got a of {bits} bits$"):
                check()

    def test_base_just_under_the_float_range(self):
        a = 2**1023 - 1
        for z in (0.0, 1e-309):
            report = verify_numeric(a, z, 3)
            assert report.passed and report.target == 1 - a * z
            assert report.float_slack < float("inf")
        assert 0 < tail_bound(a, 1e-309, 3) < 1

    def test_slack_separated_from_tail(self):
        report = verify_numeric(3, 0.2, 30)
        assert report.tail_bound >= 0.0
        assert report.float_slack > 0.0
        assert report.residual <= report.tail_bound + report.float_slack

    def test_random_sample_sound(self):
        rng = random.Random(99)
        for _ in range(50):
            a = rng.choice([2, 3, 5])
            radius = rng.uniform(0.0, 0.9 / a)
            z = radius * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))
            report = verify_numeric(a, z, 80)
            assert report.passed, (a, z, report.residual, report.tail_bound)

    def test_json_shape(self):
        d = verify_numeric(2, 0.1 + 0.2j, 20).to_json_dict()
        assert d["schema"] == "verify.numeric"
        assert d["z"] == {"re": 0.1, "im": 0.2}
        assert isinstance(d["residual"], float)


class TestCountBridge:
    def test_f2_first_ten(self):
        report = verify_count_bridge(2, 1, 10)
        assert report.passed
        assert [measured for _, _, measured in report.rows] == [
            2, 1, 2, 3, 6, 9, 18, 30, 56, 99,
        ]
        assert all(formula == measured for _, formula, measured in report.rows)

    def test_f4(self):
        assert verify_count_bridge(2, 2, 5).passed

    def test_linears_over_f5(self):
        report = verify_count_bridge(5, 1, 1)
        assert report.rows == ((1, 5, 5),)
        assert report.passed

    def test_trial_method(self):
        assert verify_count_bridge(3, 1, 4, method="trial").passed

    def test_budget_refusal_reports_feasible_n_max(self):
        with pytest.raises(BudgetExceededError, match="largest feasible n_max.*is 10"):
            verify_count_bridge(2, 1, 30, budget=1024)

    def test_json_shape(self):
        d = verify_count_bridge(2, 1, 3).to_json_dict()
        assert d["schema"] == "verify.bridge"
        assert d["rows"][0] == {"n": 1, "formula": "2", "measured": "2", "equal": True}
        assert d["pass"] is True


def _plus_one_at(expand, index):
    # expand with coefficient index of its result raised by one
    def perturbed(spec):
        coeffs = list(expand(spec).coeffs)
        coeffs[index] += 1
        return TruncatedSeries(tuple(coeffs))
    return perturbed


def _cli(capsys, argv):
    # exit status, text lines and JSON object of one CLI call
    code, text = run(argv), capsys.readouterr().out.splitlines()
    assert run(argv + ["--json"]) == code
    return code, text, json.loads(capsys.readouterr().out)


class TestReportedFailures:
    """The identity and the counts hold, so a failure is forced by perturbing
    one routine's result; the report, exit status 1 and both outputs name it."""

    def test_symbolic_recursion_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "expand_recursive", _plus_one_at(verify.expand_recursive, 3))
        report = verify_symbolic(2, 8)
        assert (report.passed, report.first_failure) == (False, (3, 0, 1))
        code, text, obj = _cli(capsys, ["verify", "symbolic", "--a", "2", "--degree", "8"])
        assert code == 1
        assert text[-2:] == ["pass           false", "first_failure  index 3: expected 0, got 1"]
        assert obj["pass"] is False
        assert obj["first_failure"] == {"index": 3, "expected": "0", "actual": "1"}

    def test_symbolic_cross_check_mismatch(self, monkeypatch, capsys):
        # the recursion matches 1 - 2z; the direct product disagrees with it
        monkeypatch.setattr(verify, "expand_direct", _plus_one_at(verify.expand_direct, 1))
        report = verify_symbolic(2, 8, cross_check=True)
        assert (report.passed, report.first_failure) == (False, (1, -2, -1))
        code, text, obj = _cli(capsys, ["verify", "symbolic", "--a", "2", "--degree", "8", "--cross-check"])
        assert code == 1
        assert "cross_checked  true" in text
        assert text[-1] == "first_failure  index 1: expected -2, got -1"
        assert (obj["pass"], obj["cross_checked"]) == (False, True)
        assert obj["first_failure"] == {"index": 1, "expected": "-2", "actual": "-1"}

    def test_bridge_count_mismatch(self, monkeypatch, capsys):
        count = finitefield.count_irreducibles
        monkeypatch.setattr(finitefield, "count_irreducibles",
                            lambda field, n, **kw: count(field, n, **kw) + (n == 3))
        report = verify_count_bridge(2, 1, 4)
        assert not report.passed
        assert report.rows == ((1, 2, 2), (2, 1, 1), (3, 2, 3), (4, 3, 3))
        code, text, obj = _cli(capsys, ["verify", "bridge", "--p", "2", "--k", "1", "--n-max", "4"])
        assert code == 1
        assert text[3] == f"{3:>4}  {2:>16}  {3:>16}  false"
        assert text[-1] == "pass: false"
        assert [row["equal"] for row in obj["rows"]] == [True, True, False, True]
        assert obj["rows"][2] == {"n": 3, "formula": "2", "measured": "3", "equal": False}
        assert obj["pass"] is False


def test_int_times_complex_past_1000_bits():
    # the exponent is scaled to its top 64 bits; the result is within a few
    # roundings of the exact product
    n = necklace_count(2, 1500)
    assert n.bit_length() > 1000
    w = complex(3e-301, -7.5e-302)
    got = verify._int_times_complex(n, w)
    for part, x in ((got.real, w.real), (got.imag, w.imag)):
        exact = Fraction(n) * Fraction(x)
        assert abs(Fraction(part) - exact) <= abs(exact) * Fraction(1, 2**50)


# each record with its fields in order, one field to assign to, the repr the
# record has always had, and constructor calls it refuses with their messages
_RECORDS = [
    (lambda: build_field(3, 2), "p", "FieldContext(p=3, k=2, modulus=(1, 0, 1))",
     [(lambda: FieldContext(4, 1, (0, 1)), "p=4 is not prime"),
      (lambda: FieldContext(3, 0, (0, 1)), "extension degree k must be >= 1, got 0"),
      (lambda: FieldContext(2, 2, (1, 0, 1)), "modulus (1, 0, 1) is reducible over F_2")]),
    (lambda: MonicPoly(build_field(3, 2), (2, 0, 1)), "coeffs",
     "MonicPoly(field=FieldContext(p=3, k=2, modulus=(1, 0, 1)), coeffs=(2, 0, 1))",
     [(lambda: MonicPoly(build_field(2, 1), (1, 2)), "coefficient code 2 outside [0, 2)"),
      (lambda: MonicPoly(build_field(2, 1), (1, 0)), "leading coefficient must be the identity"),
      (lambda: MonicPoly(build_field(2, 1), ()), "MonicPoly needs at least one coefficient")]),
    (lambda: TruncatedSeries((1, -2, 0)), "coeffs", "TruncatedSeries(coeffs=(1, -2, 0))",
     [(lambda: TruncatedSeries(()), "TruncatedSeries needs at least the constant term")]),
    (lambda: ExponentSpec((2, 1)), "necklace_base", "ExponentSpec(exponents=(2, 1), necklace_base=None)",
     [(lambda: ExponentSpec(()), "ExponentSpec needs at least e(1)"),
      (lambda: ExponentSpec((), necklace_base=2), "ExponentSpec needs at least e(1)")]),
    (lambda: SymbolicReport(2, 8, False, (1, -2, -3)), "passed",
     "SymbolicReport(base=2, degree_bound=8, passed=False, first_failure=(1, -2, -3), cross_checked=False)", []),
    (lambda: NumericReport(2, 0.25 + 0j, 40, 0.5 + 0j, 0.5 + 0j, 0.5 + 0j, 0.0, 1e-12, 1e-14, True), "z",
     "NumericReport(base=2, z=(0.25+0j), degree_bound=40, value_series=(0.5+0j), value_product=(0.5+0j), "
     "target=(0.5+0j), residual=0.0, tail_bound=1e-12, float_slack=1e-14, passed=True)", []),
    (lambda: BridgeReport(2, 1, 2, 3, ((1, 2, 2),), True), "method",
     "BridgeReport(p=2, k=1, q=2, n_max=3, rows=((1, 2, 2),), passed=True, method='rabin')", []),
]


@pytest.mark.parametrize("make,attr,text,refusals", _RECORDS, ids=[r[2].split("(")[0] for r in _RECORDS])
def test_records_are_immutable_values(make, attr, text, refusals):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, attr, None)
    for refused, message in refusals:
        with pytest.raises(ValueError) as info:
            refused()
        assert str(info.value) == message
