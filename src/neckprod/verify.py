"""Verification of the product identity prod_{n>=1} (1 - z^n)^N(a,n) = 1 - a z.

Two checkable forms:

* symbolic -- expand the truncated product with exact integer arithmetic
  and compare the coefficient vector against (1, -a, 0, .., 0).  Exact and
  all-or-nothing.
* numeric -- evaluate the truncated product at a complex point z with
  a*|z| < 1 and bound the effect of the dropped factors n > D rigorously.
  The tail estimate uses N(a,n) <= a^n / n together with
  |log(1-u)| <= |u| / (1-|u|), so it carries no unspecified constants:

      B_log = (a*rho)^(D+1) / ((D+1) * (1-rho) * (1-a*rho)),   rho = |z|,

  bounds sum_{n>D} N(a,n) |log(1 - z^n)|, and the dropped factors change
  the product by at most |P_D(z)| * (exp(B_log) - 1).

Floating-point error is budgeted separately from the analytic tail (the
float_slack field), so "math error" and "machine error" stay auditable.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .exact import _check_size, build_necklace_table, necklace_count
from .series import ExponentSpec, eval_complex, expand_direct, expand_recursive

# coarse outward-rounding margin applied to computed bounds; vastly larger
# than the rounding error of the handful of float operations involved
_OUTWARD = 1.0 + 1e-9

# expand_direct on the necklace exponents of base a multiplies about
# D^2 log(D) / 2 pairs of integers of up to D log2(a) bits, and its time grows
# as about (D^2 log2 a)^2.  At this limit the largest admitted calls took 46 to
# 53 s on 2 vCPU (Python 3.11): a = 2 cross-checked at D = 3535, a = 3 at 2808
# and a = 1000 at 1119, each end to end
_DIRECT_LIMIT = 12_500_000


def _check_direct(a: int, degree_bound: int) -> None:
    _check_size(a, degree_bound, _DIRECT_LIMIT, "direct expansion")


class SymbolicReport(
    namedtuple("SymbolicReport", "base degree_bound passed first_failure cross_checked", defaults=(False,))
):
    """Outcome of the exact coefficient comparison; first_failure is None or
    (index, expected, actual)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        d: dict = {
            "schema": "verify.symbolic",
            "base": str(self.base),
            "degree_bound": self.degree_bound,
            "pass": self.passed,
            "cross_checked": self.cross_checked,
        }
        if self.first_failure is not None:
            j, expected, actual = self.first_failure
            d["first_failure"] = {
                "index": j,
                "expected": str(expected),
                "actual": str(actual),
            }
        else:
            d["first_failure"] = None
        return d


class NumericReport(
    namedtuple(
        "NumericReport",
        "base z degree_bound value_series value_product target residual tail_bound float_slack passed",
    )
):
    """Outcome of a floating-point evaluation check with tail bound."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "schema": "verify.numeric",
            "base": str(self.base),
            "z": {"re": self.z.real, "im": self.z.imag},
            "degree_bound": self.degree_bound,
            "value_series": {"re": self.value_series.real, "im": self.value_series.imag},
            "value_product": {"re": self.value_product.real, "im": self.value_product.imag},
            "target": {"re": self.target.real, "im": self.target.imag},
            "residual": self.residual,
            "tail_bound": self.tail_bound,
            "float_slack": self.float_slack,
            "pass": self.passed,
        }


class BridgeReport(namedtuple("BridgeReport", "p k q n_max rows passed method", defaults=("rabin",))):
    """Per-degree comparison of measured vs formula irreducible counts; each
    of rows is (n, formula, measured)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "schema": "verify.bridge",
            "p": self.p,
            "k": self.k,
            "q": self.q,
            "n_max": self.n_max,
            "method": self.method,
            "rows": [
                {
                    "n": n,
                    "formula": str(formula),
                    "measured": str(measured),
                    "equal": formula == measured,
                }
                for n, formula, measured in self.rows
            ],
            "pass": self.passed,
        }


def necklace_exponent_spec(a: int, degree_bound: int) -> ExponentSpec:
    """ExponentSpec with e(n) = N(a, n), flagged so the recursive expander
    asserts the divisor sums collapse to a**k."""
    table = build_necklace_table(a, degree_bound)
    return ExponentSpec(exponents=table.values, necklace_base=a)


def verify_symbolic(a: int, degree_bound: int, cross_check: bool = False) -> SymbolicReport:
    """Exact check that prod_{n<=D} (1 - z^n)^N(a,n) = 1 - a z mod z^(D+1).

    Factors with n > D cannot touch coefficients below z^(D+1), so the
    truncated product must match (1, -a, 0, .., 0) exactly.  With
    cross_check=True the direct multiplication oracle must also agree with
    the recursion coefficient for coefficient; a cross-check past the size
    limit of the direct expansion is refused with ValueError before any work.
    """
    if a < 1:
        raise ValueError(f"verify_symbolic requires a >= 1, got a={a}")
    if degree_bound < 1:
        raise ValueError(f"degree_bound must be >= 1, got {degree_bound}")
    if cross_check:
        _check_direct(a, degree_bound)
    spec = necklace_exponent_spec(a, degree_bound)
    got = expand_recursive(spec)
    expected = (1, -a) + (0,) * (degree_bound - 1)
    first_failure = None
    for j, (e, g) in enumerate(zip(expected, got.coeffs)):
        if e != g:
            first_failure = (j, e, g)
            break
    if cross_check and first_failure is None:
        direct = expand_direct(spec)
        for j, (r, d) in enumerate(zip(got.coeffs, direct.coeffs)):
            if r != d:
                first_failure = (j, r, d)
                break
    return SymbolicReport(
        base=a,
        degree_bound=degree_bound,
        passed=first_failure is None,
        first_failure=first_failure,
        cross_checked=cross_check,
    )


def _check_float_base(name: str, a: int) -> None:
    # the tail bound and the evaluation take a as a float: a > 1, and below
    # 2^1023 so that neither float(a) nor a * rho can overflow
    if a <= 1:
        raise ValueError(f"{name} requires an integer a > 1, got a={a}")
    if a.bit_length() > 1023:
        raise ValueError(f"{name} requires a < 2^1023, the float range; got a of {a.bit_length()} bits")


def tail_bound(a: int, rho: float, degree_bound: int) -> float:
    """Upper bound on sum_{n>D} N(a,n) |log(1 - z^n)| over |z| <= rho.

    Uses N(a,n) <= a^n/n and |log(1-u)| <= |u|/(1-|u|) (valid for |u| < 1),
    giving the closed form (a rho)^(D+1) / ((D+1) (1-rho) (1-a rho)).
    Requires 1 < a < 2^1023 and a*rho < 1; rounded outward.
    """
    _check_float_base("tail_bound", a)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"tail_bound requires 0 <= rho < 1, got rho={rho}")
    if a * rho >= 1.0:
        raise ValueError(
            f"a*rho = {a * rho} >= 1: outside the convergence region |z| < 1/a"
        )
    D = degree_bound
    x = a * rho
    return (x ** (D + 1)) / ((D + 1) * (1.0 - rho) * (1.0 - x)) * _OUTWARD


def _int_times_complex(n: int, w: complex, e: int = 0) -> complex:
    # n*w*2^e for huge exact n without overflowing the float conversion
    if n.bit_length() <= 1000 and e == 0:
        return float(n) * w
    shift = max(0, n.bit_length() - 64)
    m = float(n >> shift)
    return complex(math.ldexp(m * w.real, shift + e), math.ldexp(m * w.imag, shift + e))


def _clog1m(u: complex) -> complex:
    # log(1 - u) without the rounding cliff of forming 1 - u for tiny |u|;
    # the factor exponents N(a,n) amplify any absolute error in this log
    if abs(u) < 1e-3:
        acc = 1.0 / 8.0
        for k in range(7, 0, -1):
            acc = acc * u + 1.0 / k
        return -u * acc
    return cmath.log(1.0 - u)


def verify_numeric(a: int, z: complex, degree_bound: int) -> NumericReport:
    """Check |P_D(z) - (1 - a z)| against the rigorous tail bound.

    P_D(z) is computed two ways sharing no code path: Horner evaluation of
    the exact expanded series, and the literal finite product
    prod_{n<=D} (1 - z^n)^N(a,n) in floating point (each factor via
    exp(N log(1 - z^n))).  The worse residual is compared against the
    product-level tail bound |P_D(z)| (e^B_log - 1) plus an explicit
    floating-point slack (D+1) * max_intermediate * 2^-50.
    """
    _check_float_base("verify_numeric", a)
    if degree_bound < 1:
        raise ValueError(f"degree_bound must be >= 1, got {degree_bound}")
    z = complex(z)
    if cmath.isnan(z):
        raise ValueError(f"z must not have a NaN part, got z={z}")
    rho = abs(z)
    if a * rho >= 1.0:
        raise ValueError(
            f"a*|z| = {a * rho} >= 1: z is outside the convergence region "
            f"|z| < 1/a of the product identity"
        )
    D = degree_bound
    b_log = tail_bound(a, rho, D)
    if b_log > 709.782712893384:  # log of the largest float, past which math.expm1 overflows
        raise ValueError(f"the tail bound at z={z} overflows a float at degree {D}; a larger degree shrinks it")
    spec = necklace_exponent_spec(a, D)
    expansion = expand_recursive(spec)
    value_series = eval_complex(expansion, z)

    value_product = 1.0 + 0.0j
    max_partial = 1.0
    # z^n = zn 2^scale: a subnormal z^n keeps a few bits, and N(a, n) z^n can
    # still be large, so zn is scaled up before it underflows; below 2^-900
    # log(1 - z^n) is -z^n to the last bit
    zn, scale = 1.0 + 0.0j, 0
    for n in range(1, D + 1):
        zn *= z
        if abs(zn) < 2.0**-900:
            zn, scale = zn * 2.0**900, scale - 900
        w = _clog1m(zn) if scale == 0 else -zn
        value_product *= cmath.exp(_int_times_complex(spec.exponent(n), w, scale))
        max_partial = max(max_partial, abs(value_product))

    target = 1.0 - a * z
    residual = max(abs(value_series - target), abs(value_product - target))

    p_mag = max(abs(value_series), abs(value_product))
    product_tail = p_mag * math.expm1(b_log) * _OUTWARD

    coeff_mass = float(sum(abs(c) for c in expansion.coeffs))
    biggest = max(max_partial, coeff_mass, abs(target), 1.0)
    float_slack = (D + 1) * 2.0**-50 * biggest  # scaled first, so a near 2^1023 stays finite

    return NumericReport(
        base=a,
        z=z,
        degree_bound=D,
        value_series=value_series,
        value_product=value_product,
        target=target,
        residual=residual,
        tail_bound=product_tail,
        float_slack=float_slack,
        passed=residual <= product_tail + float_slack,
    )


def verify_count_bridge(
    p: int,
    k: int,
    n_max: int,
    method: str = "rabin",
    budget: int | None = None,
    workers: int = 1,
) -> BridgeReport:
    """Compare brute-force irreducible counts over F_{p^k} against the
    necklace formula N(q, n) for every n <= n_max.

    budget None means finitefield.DEFAULT_BUDGET.  Refuses up front if any
    degree would exceed the enumeration budget, naming the largest feasible
    n_max.
    """
    from . import finitefield  # only the bridge counts; symbolic and numeric never load it

    finitefield.check_sweep(p, k, n_max, method, budget)
    fieldctx = finitefield.build_field(p, k)
    q = fieldctx.q
    rows = []
    all_equal = True
    for n in range(1, n_max + 1):
        formula = necklace_count(q, n)
        measured = finitefield.count_irreducibles(fieldctx, n, method=method, budget=budget, workers=workers)
        rows.append((n, formula, measured))
        if formula != measured:
            all_equal = False
    return BridgeReport(
        p=p, k=k, q=q, n_max=n_max, rows=tuple(rows), passed=all_equal, method=method
    )
