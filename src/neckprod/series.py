"""Truncated formal power series over exact integers.

A TruncatedSeries holds the coefficients c_0..c_D of a power series
mod z^(D+1).  Products of the shape prod_{n=1}^{D} (1 - z^n)^{e(n)} can be
expanded along two independent routes:

* expand_direct  -- multiply each factor's binomial terms into the running
  coefficients in place; factor n has only D/n nonzero terms, so this
  costs O(D^2 log D) coefficient products.  The slower, obviously-correct
  oracle.
* expand_recursive -- the log-derivative recursion
      n r(n) = - sum_{k=1}^{n} r(n-k) g(k),   g(k) = sum_{d|k} d e(d),
  summed over the nonzero r(n-k) only, so it costs O(D s) integer
  operations for s nonzero coefficients after an O(D log D) divisor
  sweep: O(D) for necklace exponents, whose product is 1 - a z.

Both paths stay in exact integer arithmetic throughout; the recursion's
division by n is exact whenever the exponents are integers, and a nonzero
remainder is an internal error.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul


class TruncatedSeries(namedtuple("TruncatedSeries", "coeffs")):
    """Exact integer coefficients c_0..c_D of a series mod z^(D+1)."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if len(coeffs) < 1:
            raise ValueError("TruncatedSeries needs at least the constant term")
        return super().__new__(cls, coeffs)

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings (they may exceed 64 bits)."""
        return [str(c) for c in self.coeffs]


class ExponentSpec(namedtuple("ExponentSpec", "exponents necklace_base")):
    """Integer exponents e(1)..e(D) of the product prod (1 - z^n)^e(n).

    Any integers are allowed, including zero and negative.  When
    necklace_base is set, the spec claims e(n) = N(base, n); the recursive
    expander then asserts the divisor sums g(k) collapse to base**k, which
    is the Mobius-inversion identity for necklace counts.
    """

    __slots__ = ()

    def __new__(cls, exponents: tuple[int, ...], necklace_base: int | None = None):
        if len(exponents) < 1:
            raise ValueError("ExponentSpec needs at least e(1)")
        return super().__new__(cls, exponents, necklace_base)

    @property
    def degree_bound(self) -> int:
        return len(self.exponents)

    def exponent(self, n: int) -> int:
        """e(n) for 1 <= n <= degree_bound."""
        if not 1 <= n <= self.degree_bound:
            raise ValueError(f"n={n} outside spec range 1..{self.degree_bound}")
        return self.exponents[n - 1]


# The size limit of explicit exponents, per expander.  D exponents of at
# most B bits make about D^2 coefficient products of D B by B bits, so the
# work grows as D^3 B^2 whatever the exponents' signs.  At each limit, end
# to end (2 vCPU), the slowest input measured was D exponents of -1, whose
# product, the partition series, has no zero coefficient for the recursion
# to skip: 12-14 s recursive (D = 15,874) and 44 s direct (D = 7,937);
# exponents of 1, of mixed signs, and of 20, 200 or 2000 bits took 0.6-31 s.
_RAW_LIMITS = {"recursive": 4 * 10**12, "direct": 5 * 10**11}


def _check_raw(exponents: tuple[int, ...], method: str) -> None:
    # refuse, before any work, exponents past D^3 B^2 <= the method's limit,
    # naming the most exponents admitted at their bit length
    D, B = len(exponents), max(1, max(map(abs, exponents)).bit_length())
    limit = _RAW_LIMITS[method]
    feasible = round((limit / B**2) ** (1 / 3))
    feasible -= feasible**3 * B**2 > limit  # the float cube root is off by at most one
    feasible += (feasible + 1) ** 3 * B**2 <= limit
    if D > feasible:
        raise ValueError(
            f"{D} exponents of up to {B} bits exceed the {method} expansion's size limit "
            f"D^3 B^2 <= {limit} (about a minute); at {B} bits the most exponents admitted is {feasible}"
        )


def expand_direct(spec: ExponentSpec) -> TruncatedSeries:
    """Expand prod_{n<=D} (1 - z^n)^e(n) by literal polynomial multiplication.

    The factor (1 - z^n)^e has nonzero terms b_j z^(nj) only, with b_0 = 1
    and b_{j+1} = -b_j (e - j) / (j + 1): exact for every integer e, and
    zero after j = e when e >= 0.  It is multiplied into the running
    coefficients c in place, c[m] += sum_{j>=1} b_j c[m - nj] for m from D
    down to n, so every c[m - nj] read is still the old value.  Factor n
    takes at most D^2 / (2n) products, O(D^2 log D) in all; at large D the
    growing size of the coefficients, not their number, sets the time.

    This is the independent oracle for expand_recursive: the two share no
    arithmetic beyond series construction.
    """
    D = spec.degree_bound
    c = [1] + [0] * D
    for n, e in enumerate(spec.exponents, 1):
        if e == 0:
            continue
        terms = []
        b = 1
        for j in range(D // n):
            b = -b * (e - j) // (j + 1)
            if b == 0:
                break
            terms.append(b)
        for m in range(D, n - 1, -1):
            # map stops at the shorter of b_1.. and c[m - n], c[m - 2n], ..
            c[m] += sum(map(mul, terms, c[m - n :: -n]))
    return TruncatedSeries(tuple(c))


def expand_recursive(spec: ExponentSpec) -> TruncatedSeries:
    """Expand prod_{n<=D} (1 - z^n)^e(n) via the log-derivative recursion.

    r(0) = 1 and n r(n) = - sum_{k=1}^{n} r(n-k) g(k) with
    g(k) = sum_{d|k} d e(d).  g is precomputed with a divisor sweep.  The
    sum runs over the support, the indices i = n - k < n with r(i) != 0,
    kept as the coefficients are found, so the recursion costs O(D s)
    products for s nonzero coefficients: O(D) for a necklace spec, whose
    product is 1 - a z, and O(D^2) when the result is dense.  The division
    by n is exact for integer exponents; a remainder means a bug.

    For specs flagged with necklace_base = a, each g(k) is asserted to
    equal a**k before the convolution runs.
    """
    D = spec.degree_bound
    e = spec.exponents
    g = [0] * (D + 1)
    for d in range(1, D + 1):
        ed = e[d - 1]
        if ed == 0:
            continue
        de = d * ed
        for k in range(d, D + 1, d):
            g[k] += de
    if spec.necklace_base is not None:
        a = spec.necklace_base
        power = 1
        for k in range(1, D + 1):
            power *= a
            if g[k] != power:
                raise AssertionError(
                    f"necklace spec for base {a} has g({k}) = {g[k]}, "
                    f"expected {a}**{k} = {power}"
                )
    r = [1] + [0] * D
    support = [0]  # the i < n with r(i) != 0, ascending
    for n in range(1, D + 1):
        total = sum([r[i] * g[n - i] for i in support])
        coeff, rem = divmod(-total, n)
        if rem:
            raise AssertionError(
                f"recursion coefficient sum {total} not divisible by n={n}; "
                "this is an internal consistency failure"
            )
        r[n] = coeff
        if coeff:
            support.append(n)
    return TruncatedSeries(tuple(r))


def eval_complex(s: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation sum c_j z^j in double-precision complex arithmetic.

    Approximate by nature: coefficients are converted to floating point.
    """
    z = complex(z)
    acc = 0j
    for c in reversed(s.coeffs):
        acc = acc * z + c
    return acc
