"""Integer number-theoretic primitives: Mobius function, divisor lists,
and the necklace count N(a, n).

N(a, n) = (1/n) * sum_{d|n} mu(n/d) * a**d counts aperiodic necklaces of
n beads in a colors.  Everything here is exact arbitrary-precision integer
arithmetic; the division by n in the necklace formula is always exact
(Gauss's congruence n | sum_{d|n} mu(n/d) a**d), and a failed division is
treated as an internal bug, never a recoverable condition.
"""

from __future__ import annotations

from collections import namedtuple

# trial division up to sqrt(n) is the cost of mobius and divisors; above
# this bound it would run for minutes, so such n are refused
MAX_FACTOR_N = 10**12


def _check_factor_arg(name: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{name} requires n >= 1, got {n}")
    if n > MAX_FACTOR_N:
        raise ValueError(f"{name} requires n <= 10^12 (trial-division limit), got {n}")


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
    n < 1 or n > MAX_FACTOR_N."""
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

    Exact for any a >= 1, n >= 1.  The divisor sum is provably divisible
    by n; a nonzero remainder indicates a bug in this module.
    """
    if a < 1:
        raise ValueError(f"necklace_count requires a >= 1, got a={a}")
    if n < 1:
        raise ValueError(f"necklace_count requires n >= 1, got n={n}")
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
    (A namedtuple: importing dataclasses would cost mobius/necklace calls.)
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
    factorizations.
    """
    if a < 1:
        raise ValueError(f"build_necklace_table requires a >= 1, got a={a}")
    if degree_bound < 1:
        raise ValueError(
            f"build_necklace_table requires degree_bound >= 1, got {degree_bound}"
        )
    D = degree_bound
    mu = mobius_sieve(D)
    powers = [1] * (D + 1)
    for d in range(1, D + 1):
        powers[d] = powers[d - 1] * a
    sums = [0] * (D + 1)  # sums[n] = sum_{d|n} mu(n/d) a^d
    for t in range(1, D + 1):
        mt = mu[t]
        if mt == 0:
            continue
        for d in range(1, D // t + 1):
            sums[t * d] += mt * powers[d]
    values = []
    for n in range(1, D + 1):
        count, rem = divmod(sums[n], n)
        if rem:
            raise AssertionError(
                f"necklace divisor sum {sums[n]} not divisible by n={n} (a={a})"
            )
        values.append(count)
    return NecklaceTable(base=a, degree_bound=D, values=tuple(values))
