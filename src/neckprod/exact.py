"""Integer number-theoretic primitives: Mobius function, divisor lists,
and the necklace count N(a, n).

N(a, n) = (1/n) * sum_{d|n} mu(n/d) * a**d counts aperiodic necklaces of
n beads in a colors.  Everything here is exact arbitrary-precision integer
arithmetic; the division by n in the necklace formula is always exact
(Gauss's congruence n | sum_{d|n} mu(n/d) a**d), and a failed division is
treated as an internal bug, never a recoverable condition.
"""

from __future__ import annotations

import math
from collections import namedtuple

# trial division up to sqrt(n) is the cost of mobius and divisors; above
# this bound it would run for minutes, so such n are refused
MAX_FACTOR_N = 10**12


def _check_factor_arg(name: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{name} requires n >= 1, got {n}")
    if n > MAX_FACTOR_N:
        raise ValueError(f"{name} requires n <= 10^12 (trial-division limit), got {n}")


def _check_size(a: int, degree: int, limit: int, what: str, square: bool = True) -> None:
    # refuse, naming the largest feasible degree, work on the necklace values
    # of base a past D^2 log2(a) <= limit, or n log2(a) <= limit for one value
    # of degree n; a = 1 has values 0 and 1.  The message leaves out a, whose
    # decimal form takes quadratic time to write.
    if a < 2:
        return
    feasible = int(limit / math.log2(a))
    if square:
        feasible = math.isqrt(feasible)
    if degree > feasible:
        raise ValueError(
            f"{what} at degree {degree} exceeds the size limit {'D^2' if square else 'n'} "
            f"log2(a) <= {limit} (about a minute); largest feasible degree is {feasible}"
        )


def mobius(n: int) -> int:
    """Mobius function mu(n) by trial-division factorization.

    Returns 0 if n has a squared prime factor, otherwise (-1)**k where
    k is the number of distinct prime factors; mu(1) = 1.  Raises
    ValueError for n < 1 or n > MAX_FACTOR_N.
    """
    _check_factor_arg("mobius", n)
    result = 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending.  Raises ValueError for
    n < 1 or n > MAX_FACTOR_N.

    Public because necklace_count sums over exactly this list, on which
    the tests check sum_{d | n} d N(a, d) = a^n."""
    _check_factor_arg("divisors", n)
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def necklace_count(a: int, n: int) -> int:
    """Necklace count N(a, n) = (1/n) * sum_{d|n} mu(n/d) * a**d.

    Exact for any a >= 1 and 1 <= n <= MAX_FACTOR_N.  The divisor sum is
    provably divisible by n; a nonzero remainder indicates a bug in this
    module.  A value past n log2(a) = 6 * 10^6 bits is refused with
    ValueError before any work.
    """
    if a < 1:
        raise ValueError(f"necklace_count requires a >= 1, got a={a}")
    _check_factor_arg("necklace_count", n)
    # N(a, n) has about n log2(a) bits, and writing it in decimal takes time
    # quadratic in that: at this limit `necklace` took 55 s end to end for
    # a = 2 and 58 s for a = 1000 (2 vCPU)
    _check_size(a, n, 6_000_000, "a necklace count", square=False)
    total = 0
    for d in divisors(n):
        total += mobius(n // d) * a**d
    count, rem = divmod(total, n)
    if rem:
        raise AssertionError(
            f"necklace divisor sum {total} not divisible by n={n} (a={a}); "
            "this is an internal consistency failure"
        )
    return count


def mobius_sieve(limit: int) -> list[int]:
    """mu(0..limit) via a linear sieve; mu[0] is set to 0 by convention."""
    if limit < 1:
        raise ValueError(f"mobius_sieve requires limit >= 1, got {limit}")
    mu = [1] * (limit + 1)
    mu[0] = 0
    primes: list[int] = []
    composite = [False] * (limit + 1)
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            composite[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


class NecklaceTable(namedtuple("NecklaceTable", "base degree_bound values")):
    """Cached necklace counts N(a, 1) .. N(a, D) for a fixed base a.

    values[n-1] holds N(a, n).  Immutable; safe to share between threads.
    (A namedtuple like every record of the package, so no call loads dataclasses.)
    """

    __slots__ = ()

    def value(self, n: int) -> int:
        """N(a, n) for 1 <= n <= degree_bound."""
        if not 1 <= n <= self.degree_bound:
            raise ValueError(f"n={n} outside table range 1..{self.degree_bound}")
        return self.values[n - 1]


def build_necklace_table(a: int, degree_bound: int) -> NecklaceTable:
    """NecklaceTable for base a up to degree_bound.

    Uses a mu sieve plus a divisor sweep, so the whole table costs
    O(D log D) big-integer additions instead of D independent
    factorizations.  A table past D^2 log2(a) / 2 = 4.3 * 10^8 bits of
    values, a = 1 counted as a = 2, is refused with ValueError before any
    work.
    """
    return NecklaceTable(base=a, degree_bound=degree_bound, values=_necklace_values(a, degree_bound))


def _decimal_necklace_values(a: int, D: int) -> tuple:
    # N(a, 1..D) as integral Decimals, which `necklace table` writes: their
    # str takes linear time, int's quadratic time.  The context makes each
    # operation exact or raise
    import decimal
    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow]
    with decimal.localcontext(decimal.Context(
            prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=traps)):
        return _necklace_values(a, D, decimal.Decimal(1))


def _necklace_values(a: int, D: int, one=1) -> tuple:
    # N(a, 1..D) in the type of one
    if a < 1:
        raise ValueError(f"build_necklace_table requires a >= 1, got a={a}")
    if D < 1:
        raise ValueError(f"build_necklace_table requires degree_bound >= 1, got {D}")
    # at this limit `necklace table`, written from Decimals, takes 0.7-1.1 s
    # end to end for a = 2 and 0.8 s for a = 1000 and 10^6 (2 vCPU); the
    # limit also bounds the int tables of `expand` and `verify`.  a = 1 counts
    # as a = 2: its values are 0 and 1, and `expand` of its table takes 0.2 s
    # at D = 29,325, as the recursion sums over the two nonzero coefficients of 1 - z
    what = "a necklace table" if a > 1 else "a necklace table (a = 1 counts as a = 2)"
    _check_size(max(a, 2), D, 860_000_000, what)
    mu = mobius_sieve(D)
    sums = [0] * (D + 1)  # sums[n] = sum_{d|n} mu(n/d) a^d
    base, power = one * a, one  # a converted once: int to Decimal takes quadratic time
    for d in range(1, D + 1):
        power *= base
        signed = (0, power, -power)  # indexed by mu = 0, 1, -1
        for t in range(1, D // d + 1):
            if mu[t]:
                sums[t * d] += signed[mu[t]]
    for n in range(1, D + 1):
        count, rem = divmod(sums[n], n)
        if rem:
            raise AssertionError(
                f"necklace divisor sum {sums[n]} not divisible by n={n} (a={a})"
            )
        sums[n] = count
    return tuple(sums[1:])
