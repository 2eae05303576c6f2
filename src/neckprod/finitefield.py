"""Finite fields F_{p^k} and brute-force counting of monic irreducibles.

Elements of F_{p^k} are degree-<k coefficient vectors over F_p reduced mod
a fixed monic irreducible modulus, encoded as integer codes
sum v_i p^i in [0, q).  The modulus is chosen deterministically (the
lexicographically smallest irreducible, comparing coefficient tuples from
the constant term upward), so contexts reproduce across runs and
platforms.  Scalar element arithmetic works on the coefficient vectors
directly.

Two independent irreducibility tests are provided:

* is_irreducible_trial -- exhaustive long division by every monic
  polynomial of degree 1..deg(f)//2; the slow oracle.
* is_irreducible_rabin -- x^(q^n) == x (mod f) plus
  gcd(x^(q^(n/l)) - x, f) = 1 for each prime l | n.

The two share FieldContext arithmetic and one long division, _poly_rem;
the engine imports nothing from here.  The modulus of an extension is
found by Ben-Or's test over F_p and checked by Rabin's.

count_irreducibles sweeps all q^n monic polynomials through
neckprod.engine, which it imports once check_sweep has accepted a sweep
that needs it, and sums the bits of the engine's one int of verdicts per
aligned block.  numpy is loaded only by sweeps over p >= 5.
count_irreducibles answers n = 1 with q without the engine.  For
q > MAX_ENGINE_Q = 2^16 check_sweep refuses n >= 2 (a budget of 2^34 or
more).

The scalar tests above are the reference semantics and the engine is
held to them in the test suite.  check_sweep validates every sweep before
any work, deciding the budget from bit lengths so that a huge p or k is
refused without computing p^k; counts above the enumeration budget are
refused outright rather than truncated.
"""

from __future__ import annotations

import operator
import os
from collections import namedtuple

DEFAULT_BUDGET = 1 << 24
MAX_BUDGET = 1 << 63  # enumeration indices are int64
MAX_ENGINE_Q = 1 << 16  # largest field the engine sweeps at n >= 2


class NotPrimeError(ValueError):
    """Raised when a field characteristic fails the primality check."""


class BudgetExceededError(ValueError, RuntimeError):
    """Raised when an enumeration would exceed the configured budget: a
    refusal, as every ValueError, and a RuntimeError for callers catching one."""


# Miller-Rabin with the first twelve primes as bases decides every n below
# this bound exactly (Sorenson & Webster 2015); it exceeds 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check, exact for every
    n < 3.3 * 10^24 (every n < 2^64 in particular).

    Raises ValueError above that bound, where the fixed bases no longer
    decide primality.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} is not decided above 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_sweep(p: int, k: int, n: int, method: str = "rabin", budget: int | None = None) -> int:
    """Validate a sweep over the q^n monic degree-n polynomials over
    F_{p^k} and return q^n.  budget None means DEFAULT_BUDGET.

    Raises ValueError for an unknown method, n < 1, k < 1 or a budget
    outside [1, MAX_BUDGET]; NotPrimeError for p < 2; BudgetExceededError,
    naming the budget and the largest feasible degree, when q^n exceeds
    the budget.  The budget is checked by bit length before p^k is
    computed, so a huge p or k is refused at once.  A sweep within the
    budget is refused with ValueError when n >= 2 and q > MAX_ENGINE_Q
    (such a sweep needs a budget of at least 2^34).
    """
    if method not in ("trial", "rabin"):
        raise ValueError(f"unknown method {method!r}; expected 'trial' or 'rabin'")
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"extension degree k must be >= 1, got {k}")
    if p < 2:
        raise NotPrimeError(f"p={p} is not prime")
    budget = DEFAULT_BUDGET if budget is None else budget
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError(f"budget {budget} is outside [1, 2^63], the engine's index range")
    # p^e >= 2^((len(p) - 1) e), so a power whose lower bound reaches the
    # budget's bit length exceeds the budget without being computed
    low_bits = p.bit_length() - 1
    if low_bits * k * n < budget.bit_length():
        total = p ** (k * n)
        if total <= budget:
            if n >= 2 and p**k > MAX_ENGINE_Q:
                raise ValueError(
                    f"q = {p}^{k} exceeds 2^16, the largest field swept at degree n >= 2"
                )
            return total
    feasible = 0
    if low_bits * k < budget.bit_length():
        q = p**k
        while q ** (feasible + 1) <= budget:
            feasible += 1

    def power(e: int) -> str:
        return str(p) if e == 1 else f"{p}^{e}"

    raise BudgetExceededError(
        f"sweeping q^n = {power(k * n)} monic polynomials exceeds the budget of {budget}; "
        f"largest feasible n_max for q = {power(k)} is {feasible}"
    )


def _prime_factors(n: int) -> list[int]:
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    return factors


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------


class FieldContext(namedtuple("FieldContext", "p k modulus")):
    """Arithmetic context for F_{p^k} with a fixed irreducible modulus.

    Element codes are integers in [0, q); code sum v_i p^i stands for the
    coefficient vector (v_0, .., v_{k-1}).  Codes 0 and 1 are the additive
    and multiplicative identities.  A namedtuple, so instances are immutable
    and safe to share between threads.

    build_field selects the modulus deterministically; constructing a
    context directly with an explicit modulus is allowed, and the modulus
    is verified irreducible by Rabin's test over F_p either way.
    """

    __slots__ = ()

    def __new__(cls, p: int, k: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree k must be >= 1, got {k}")
        modulus = tuple(modulus)
        if k == 1:
            if modulus != (0, 1):
                raise ValueError("prime fields use the identity modulus x, i.e. (0, 1)")
        else:
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            if not all(0 <= c < p for c in modulus):
                raise ValueError("modulus coefficients must be reduced mod p")
            if not is_irreducible_rabin(MonicPoly(FieldContext(p, 1, (0, 1)), modulus)):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        return super().__new__(cls, p, k, modulus)

    def __reduce__(self):  # a pool worker takes the caller's field without validating it again
        return tuple.__new__, (type(self), tuple(self))

    @property
    def q(self) -> int:
        return self.p**self.k

    # -- element encoding ---------------------------------------------------

    def element_vector(self, code: int) -> tuple[int, ...]:
        """Coefficient vector (v_0, .., v_{k-1}) of an element code."""
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} outside [0, {self.q})")
        out = []
        for _ in range(self.k):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def element_code(self, vector) -> int:
        """Inverse of element_vector."""
        if len(vector) != self.k:
            raise ValueError(f"vector length {len(vector)} != k={self.k}")
        code = 0
        for v in reversed(vector):
            if not 0 <= v < self.p:
                raise ValueError(f"coefficient {v} outside [0, {self.p})")
            code = code * self.p + v
        return code

    # -- element arithmetic ---------------------------------------------------

    def _digitwise(self, op, a: int, b: int) -> int:
        # op(a_i, b_i) mod p on each pair of base-p digits of two codes
        p = self.p
        if self.k == 1:
            return op(a, b) % p
        out, place = 0, 1
        for _ in range(self.k):
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += op(da, db) % p * place
            place *= p
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(operator.add, a, b)

    def neg(self, a: int) -> int:
        return self._digitwise(operator.sub, 0, a)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(operator.sub, a, b)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._mul_direct(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of the zero element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._power(a, self.q - 2)  # Fermat: a^(q-1) = 1

    def _power(self, a: int, e: int) -> int:
        """a**e for e >= 0, by square and multiply."""
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _mul_direct(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        av = self.element_vector(a)
        bv = self.element_vector(b)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for j in range(2 * k - 2, k - 1, -1):
            lead = prod[j]
            if lead:
                for i in range(k):
                    if mod[i]:
                        prod[j - k + i] = (prod[j - k + i] - lead * mod[i]) % p
                prod[j] = 0
        return self.element_code(tuple(prod[:k]))


def build_field(p: int, k: int) -> FieldContext:
    """F_{p^k} with the lexicographically smallest irreducible modulus.

    For k = 1 the modulus is the identity polynomial x.  Non-prime p is
    rejected with NotPrimeError, by FieldContext before any search.
    """
    return FieldContext(p, k, (0, 1) if k < 2 else _smallest_irreducible(p, k))


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # lex-smallest monic irreducible of degree k >= 2 over F_p, scanning
    # (c0, .., c_{k-1}) from c0 = 1 (x divides every candidate with c0 = 0).
    # Ben-Or's test: f is irreducible iff gcd(x^(p^d) - x, f) = 1 for every
    # d <= k/2, and most candidates fail at a small d.  FieldContext checks
    # the result with Rabin's test.
    base = FieldContext(p, 1, (0, 1))
    for idx in range(p ** (k - 1), p**k):
        f = list(_index_coeffs(p, k, idx)) + [1]
        x = t = _poly_rem(base, [0, 1], f)
        for _ in range(k // 2):
            t = _poly_powmod(base, t, p, f)
            if not _poly_gcd_is_one(base, f, [(a - b) % p for a, b in zip(t, x)]):
                break
        else:
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {k} over F_{p} found")


# ---------------------------------------------------------------------------
# Monic polynomials over F_q
# ---------------------------------------------------------------------------


class MonicPoly(namedtuple("MonicPoly", "field coeffs")):
    """Monic polynomial over a FieldContext.

    coeffs holds element codes, constant term first; the last entry must
    be the multiplicative identity.
    """

    __slots__ = ()

    def __new__(cls, field: FieldContext, coeffs: tuple[int, ...]):
        if len(coeffs) < 1:
            raise ValueError("MonicPoly needs at least one coefficient")
        q = field.q
        for c in coeffs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient code {c} outside [0, {q})")
        if coeffs[-1] != 1:
            raise ValueError("leading coefficient must be the identity")
        return super().__new__(cls, field, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _index_coeffs(q: int, n: int, idx: int) -> tuple[int, ...]:
    # lex rank -> free coefficients (c_0 most significant digit)
    out = [0] * n
    for j in range(n - 1, -1, -1):
        idx, out[j] = divmod(idx, q)
    return tuple(out)


# ---------------------------------------------------------------------------
# Scalar polynomial arithmetic over F_q (reference irreducibility tests)
# ---------------------------------------------------------------------------


def _poly_rem(field: FieldContext, a: list[int], g: list[int]) -> list[int]:
    # a mod monic g, as the deg g coefficients below g's leading 1
    d = len(g) - 1
    r = list(a) + [0] * (d - len(a))
    sub, mul = field.sub, field.mul
    for j in range(len(r) - 1, d - 1, -1):
        lead = r[j]
        if lead:
            for i in range(d):
                if g[i]:
                    r[j - d + i] = sub(r[j - d + i], mul(lead, g[i]))
    return r[:d]


def _poly_mulmod(field: FieldContext, a: list[int], b: list[int], f: list[int]) -> list[int]:
    # a, b of degree < n; f monic of degree n; result reduced, length n
    n = len(f) - 1
    add, mul = field.add, field.mul
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = add(prod[i + j], mul(ai, bj))
    return _poly_rem(field, prod, f)


def _poly_powmod(field: FieldContext, b: list[int], e: int, f: list[int]) -> list[int]:
    result = _poly_rem(field, [1], f)
    while e:
        if e & 1:
            result = _poly_mulmod(field, result, b, f)
        e >>= 1
        if e:
            b = _poly_mulmod(field, b, b, f)
    return result


def _poly_trim(c: list[int]) -> list[int]:
    out = list(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_gcd_is_one(field: FieldContext, a: list[int], b: list[int]) -> bool:
    # gcd over F_q[x]; only the "is the gcd constant" verdict is needed.  b
    # and b / lead(b) leave the same remainder
    a = _poly_trim(a)
    b = _poly_trim(b)
    while b:
        if b[-1] != 1:
            lead_inv = field.inv(b[-1])
            b = [field.mul(c, lead_inv) for c in b]
        a, b = b, _poly_trim(_poly_rem(field, a, b))
    return len(a) == 1


def is_irreducible_trial(f: MonicPoly) -> bool:
    """Irreducibility by exhaustive trial division.

    True iff no monic polynomial of degree 1..deg(f)//2 divides f.  This
    is the slow oracle against which the Rabin test is validated.
    """
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for degree 0")
    field = f.field
    q = field.q
    fc = list(f.coeffs)
    for d in range(1, n // 2 + 1):
        for gidx in range(q**d):
            g = list(_index_coeffs(q, d, gidx)) + [1]
            if not any(_poly_rem(field, fc, g)):
                return False
    return True


def is_irreducible_rabin(f: MonicPoly) -> bool:
    """Rabin's irreducibility test.

    f of degree n is irreducible over F_q iff x^(q^n) == x (mod f) and
    gcd(x^(q^(n/l)) - x, f) = 1 for every prime l dividing n.  Powers are
    computed by repeated squaring in the quotient ring.
    """
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for degree 0")
    field = f.field
    fc = list(f.coeffs)
    x = t = _poly_rem(field, [0, 1], fc)  # x reduced mod f
    checkpoints = {n // l for l in _prime_factors(n)}
    for j in range(1, n + 1):
        t = _poly_powmod(field, t, field.q, fc)
        if j in checkpoints:
            diff = [field.sub(ti, xi) for ti, xi in zip(t, x)]
            if not _poly_gcd_is_one(field, fc, diff):
                return False
    return t == x


def count_irreducibles(
    field: FieldContext,
    n: int,
    method: str = "rabin",
    budget: int | None = None,
    workers: int = 1,
) -> int:
    """Number of monic degree-n irreducibles over F_q by full enumeration
    with the chosen test, summed from the engine's verdicts.  'trial'
    counts the rows that no monic irreducible of degree <= n/2 divides: by
    remainders on bit planes over F_(2^k) and F_(3^k), by a product sieve
    over p >= 5.  'rabin' runs Rabin's test rowwise.

    With workers > 1 the sweep is cut into contiguous runs of whole engine
    blocks, at most one process a block and one a CPU, so a one-block sweep
    runs in this process; the result is independent of the worker count.
    Raises ValueError for workers < 1.
    """
    if workers < 1:
        raise ValueError("--workers must be >= 1")
    total = check_sweep(field.p, field.k, n, method, budget)
    if n == 1:
        return total  # every monic linear polynomial is irreducible
    from . import engine

    step = engine._block_rows(field, n, method)
    blocks = -(-total // step)
    workers = min(workers, blocks, os.cpu_count() or 1)
    if workers == 1:
        return engine._count_range((field, n, 0, total, method))
    from concurrent.futures import ProcessPoolExecutor

    if field.p > 3:
        from . import digits  # loads numpy once, here, not in each forked worker
    bounds = [min(total, step * (blocks * i // workers)) for i in range(workers + 1)]
    jobs = [(field, n, lo, hi, method) for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(engine._count_range, jobs))
