"""Finite fields F_{p^k} and brute-force counting of monic irreducibles.

Elements of F_{p^k} are degree-<k coefficient vectors over F_p reduced mod
a fixed monic irreducible modulus, encoded as integer codes
sum v_i p^i in [0, q).  The modulus is chosen deterministically (the
lexicographically smallest irreducible, comparing coefficient tuples from
the constant term upward), so contexts reproduce across runs and
platforms.  Scalar element arithmetic works on the coefficient vectors
directly; the counting engine builds its own O(q) log/antilog tables of
a primitive element on first use.

Two independent irreducibility tests are provided:

* is_irreducible_trial -- exhaustive long division by every monic
  polynomial of degree 1..deg(f)//2; the slow oracle.
* is_irreducible_rabin -- x^(q^n) == x (mod f) plus
  gcd(x^(q^(n/l)) - x, f) = 1 for each prime l | n.

Counting sweeps the full space of q^n monic polynomials in blocks of
enumeration indices.  Which engine path serves a sweep depends on (q, n):

* q = 2, n <= 32 -- the GF(2) word engine: each polynomial is one uint64
  word, bit i the coefficient of x^i.  Rabin squares by byte-spread lookup
  and reduces by shift-xor; trial division reduces by shift-xor against
  one word per candidate divisor.  Squares reach bit 2n - 2, which caps
  this path at n <= 32.
* every other field with q <= MAX_ENGINE_Q = 2^16 -- the numpy block
  engine on (rows, n) int64 coefficient matrices: mod-p arithmetic for
  prime fields; for extensions, products through the log/antilog tables
  and differences as xor (p = 2) or through a Zech table (odd p).  Rabin
  survivors finish with a Euclid batched over all survivors of a block.
* q > 2^16 -- n = 1 only (every monic linear polynomial is irreducible);
  check_sweep refuses n >= 2, which would need a budget of 2^34 or more.

The scalar tests above are the reference semantics and both engines are
held to them in the test suite.  check_sweep validates every sweep before
any work, deciding the budget from bit lengths so that a huge p or k is
refused without computing p^k; counts above the enumeration budget are
refused outright rather than truncated.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

DEFAULT_BUDGET = 1 << 24
MAX_BUDGET = 1 << 63  # enumeration indices are int64
MAX_ENGINE_Q = 1 << 16  # largest field the engine sweeps at n >= 2
_BLOCK = 1 << 16
_GF2_MAX_N = 32  # squares of degree-<32 words reach bit 62 of a uint64


class NotPrimeError(ValueError):
    """Raised when a field characteristic fails the primality check."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured budget."""


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


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p**k and p prime, or None if q is not a prime power.

    Works by trial-dividing out the smallest prime factor and checking the
    remaining cofactor is a power of it.
    """
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return (q, 1)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def check_sweep(p: int, k: int, n: int, method: str = "rabin", budget: int = DEFAULT_BUDGET) -> int:
    """Validate a sweep over the q^n monic degree-n polynomials over
    F_{p^k} and return q^n.

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
# Polynomials over the prime field F_p (modulus selection, element arithmetic)
# ---------------------------------------------------------------------------


def _fp_rem(f: list[int], g: tuple[int, ...], p: int) -> list[int]:
    # remainder of f mod monic g, coefficients low-to-high
    r = list(f)
    d = len(g) - 1
    for j in range(len(r) - 1, d - 1, -1):
        lead = r[j]
        if lead:
            for i in range(d):
                if g[i]:
                    r[j - d + i] = (r[j - d + i] - lead * g[i]) % p
            r[j] = 0
    return r[:d]


def _fp_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    # monic f over F_p, trial division by all monic polys of degree <= deg/2
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for free in itertools.product(range(p), repeat=d):
            g = free + (1,)
            if not any(_fp_rem(list(f), g, p)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # lex-smallest monic irreducible of degree k >= 2, scanning
    # (c0, .., c_{k-1}); x divides every candidate with c0 = 0
    for free in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        candidate = free + (1,)
        if _fp_is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible of degree {k} over F_{p} found")


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------


class FieldContext:
    """Arithmetic context for F_{p^k} with a fixed irreducible modulus.

    Element codes are integers in [0, q); code sum v_i p^i stands for the
    coefficient vector (v_0, .., v_{k-1}).  Codes 0 and 1 are the additive
    and multiplicative identities.  Instances are immutable after
    construction and safe to share between threads.

    build_field selects the modulus deterministically; constructing a
    context directly with an explicit modulus is allowed, and the modulus
    is verified irreducible by trial division either way.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
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
            if not _fp_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._engine_arith: _Arith | None = None

    def __repr__(self):
        return f"FieldContext(p={self.p}, k={self.k}, modulus={self.modulus})"

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

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

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.k):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.k):
            out += ((-a) % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._mul_direct(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of the zero element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv_direct(a)

    def frobenius(self, a: int) -> int:
        """a**p, the p-power Frobenius on element codes."""
        return self._power(a, self.p)

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

    def _inv_direct(self, a: int) -> int:
        # extended Euclid over F_p[x] between the element and the modulus
        p = self.p
        r0 = list(self.modulus)
        r1 = list(self.element_vector(a))
        s0, s1 = [0], [1]
        while any(r1):
            while r1 and r1[-1] == 0:
                r1.pop()
            d1 = len(r1) - 1
            lead_inv = pow(r1[-1], p - 2, p)
            q_poly = [0] * (len(r0) - len(r1) + 1)
            r = list(r0)
            for j in range(len(r) - 1, d1 - 1, -1):
                c = (r[j] * lead_inv) % p
                if c:
                    q_poly[j - d1] = c
                    for i in range(d1 + 1):
                        r[j - d1 + i] = (r[j - d1 + i] - c * r1[i]) % p
            # s_next = s0 - q * s1
            s_next = list(s0) + [0] * max(0, len(q_poly) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q_poly):
                if qi:
                    for j, sj in enumerate(s1):
                        if sj:
                            s_next[i + j] = (s_next[i + j] - qi * sj) % p
            r0, r1 = r1, [c % p for c in r[:d1]]
            s0, s1 = s1, s_next
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1:
            raise ZeroDivisionError("element is not invertible (modulus not irreducible?)")
        scale = pow(r0[0], p - 2, p)
        vec = [(c * scale) % p for c in s0[: self.k]]
        vec += [0] * (self.k - len(vec))
        return self.element_code(tuple(vec))

    def _arith(self) -> _Arith:
        # the block engine's tables, built on first use
        if self._engine_arith is None:
            self._engine_arith = _Arith(self)
        return self._engine_arith

    # -- element rendering ----------------------------------------------------

    def element_str(self, code: int) -> str:
        """Human-readable element: plain integer for prime fields, a
        polynomial in the generator 'a' for extensions."""
        if self.k == 1:
            return str(code)
        vec = self.element_vector(code)
        terms = []
        for i in range(self.k - 1, -1, -1):
            v = vec[i]
            if v == 0:
                continue
            if i == 0:
                terms.append(str(v))
            elif i == 1:
                terms.append("a" if v == 1 else f"{v}a")
            else:
                terms.append(f"a^{i}" if v == 1 else f"{v}a^{i}")
        return " + ".join(terms) if terms else "0"


def build_field(p: int, k: int) -> FieldContext:
    """F_{p^k} with the lexicographically smallest irreducible modulus.

    For k = 1 the modulus is the identity polynomial x.  Non-prime p is
    rejected with NotPrimeError.
    """
    if not is_prime(p):
        raise NotPrimeError(f"p={p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree k must be >= 1, got {k}")
    if k == 1:
        modulus: tuple[int, ...] = (0, 1)
    else:
        modulus = _smallest_irreducible(p, k)
    return FieldContext(p, k, modulus)


# ---------------------------------------------------------------------------
# Monic polynomials over F_q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial over a FieldContext.

    coeffs holds element codes, constant term first; the last entry must
    be the multiplicative identity.
    """

    field: FieldContext
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("MonicPoly needs at least one coefficient")
        q = self.field.q
        for c in self.coeffs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient code {c} outside [0, {q})")
        if self.coeffs[-1] != 1:
            raise ValueError("leading coefficient must be the identity")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        fld = self.field
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if fld.k == 1 or c in (0, 1):
                cs = str(c)
            else:
                es = fld.element_str(c)
                cs = f"({es})" if " " in es else es
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{cs}{xs}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        """JSON coefficient array: plain integers for prime fields, nested
        coefficient vectors for extensions."""
        if self.field.k == 1:
            return list(self.coeffs)
        return [list(self.field.element_vector(c)) for c in self.coeffs]


def _index_coeffs(q: int, n: int, idx: int) -> tuple[int, ...]:
    # lex rank -> free coefficients (c_0 most significant digit)
    out = [0] * n
    for j in range(n - 1, -1, -1):
        idx, out[j] = divmod(idx, q)
    return tuple(out)


def enumerate_monic(field: FieldContext, n: int, budget: int = DEFAULT_BUDGET):
    """Yield all q^n monic degree-n polynomials in lexicographic
    coefficient order (constant term most significant, coefficients
    ordered by element code).

    Refuses outright when q^n exceeds the enumeration budget.
    """
    total = check_sweep(field.p, field.k, n, budget=budget)
    for idx in range(total):
        yield MonicPoly(field, _index_coeffs(field.q, n, idx) + (1,))


# ---------------------------------------------------------------------------
# Scalar polynomial arithmetic over F_q (reference irreducibility tests)
# ---------------------------------------------------------------------------


def _poly_rem_is_zero(field: FieldContext, f: list[int], g: list[int]) -> bool:
    # does monic g divide f?
    r = list(f)
    d = len(g) - 1
    sub, mul = field.sub, field.mul
    for j in range(len(r) - 1, d - 1, -1):
        lead = r[j]
        if lead:
            for i in range(d):
                if g[i]:
                    r[j - d + i] = sub(r[j - d + i], mul(lead, g[i]))
            r[j] = 0
    return not any(r[:d])


def _poly_mulmod(field: FieldContext, a: list[int], b: list[int], f: list[int]) -> list[int]:
    # a, b of degree < n; f monic of degree n; result reduced, length n
    n = len(f) - 1
    add, mul, sub = field.add, field.mul, field.sub
    prod = [0] * (2 * n - 1) if n > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = add(prod[i + j], mul(ai, bj))
    for j in range(len(prod) - 1, n - 1, -1):
        lead = prod[j]
        if lead:
            for i in range(n):
                if f[i]:
                    prod[j - n + i] = sub(prod[j - n + i], mul(lead, f[i]))
            prod[j] = 0
    return prod[:n]


def _poly_powmod(field: FieldContext, base: list[int], e: int, f: list[int]) -> list[int]:
    n = len(f) - 1
    result = [0] * n
    result[0] = 1
    b = list(base)
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
    # gcd over F_q[x]; only the "is the gcd constant" verdict is needed
    a = _poly_trim(a)
    b = _poly_trim(b)
    sub, mul, inv = field.sub, field.mul, field.inv
    while b:
        d = len(b) - 1
        lead_inv = inv(b[-1])
        r = list(a)
        for j in range(len(r) - 1, d - 1, -1):
            c = mul(r[j], lead_inv)
            if c:
                for i in range(d):
                    if b[i]:
                        r[j - d + i] = sub(r[j - d + i], mul(c, b[i]))
                r[j] = 0
        a, b = b, _poly_trim(r[:d] if d > 0 else [])
    return len(a) == 1


def _x_rep(field: FieldContext, f: list[int]) -> list[int]:
    # the polynomial x reduced mod f, as a length-(deg f) vector
    n = len(f) - 1
    if n == 1:
        return [field.neg(f[0])]
    rep = [0] * n
    rep[1] = 1
    return rep


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
            if _poly_rem_is_zero(field, fc, g):
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
    x = _x_rep(field, fc)
    checkpoints = {n // l for l in _prime_factors(n)}
    t = list(x)
    for j in range(1, n + 1):
        t = _poly_powmod(field, t, field.q, fc)
        if j in checkpoints:
            diff = [field.sub(ti, xi) for ti, xi in zip(t, x)]
            if not _poly_gcd_is_one(field, fc, diff):
                return False
    return t == x


# ---------------------------------------------------------------------------
# Vectorized block engine
# ---------------------------------------------------------------------------
#
# Blocks of monic polynomials are held as (rows, n) int64 arrays of element
# codes (free coefficients; the leading 1 is implicit).  _Arith supplies the
# elementwise field arithmetic, so one set of block functions serves every
# field with q <= MAX_ENGINE_Q.  Verdicts match the scalar tests row for row.


def _primitive_powers(field: FieldContext) -> list[int]:
    # [g^0, .., g^(q-2)] for the primitive element g of smallest code; for
    # k >= 2 the codes below p are F_p itself and are skipped
    p, k, q = field.p, field.k, field.q
    order = q - 1
    g = next(
        g for g in range(p if k > 1 else 1, q)
        if all(field._power(g, order // r) != 1 for r in _prime_factors(order))
    )
    # times_g[a] = a g, as sum_j g_j (a x^j) on the digits of all q codes
    place = p ** np.arange(k, dtype=np.int64)
    cur = np.arange(q, dtype=np.int64)[:, None] // place % p
    mod = np.array(field.modulus[:k], dtype=np.int64)
    acc = np.zeros_like(cur)
    rest = g
    while rest:
        rest, gj = divmod(rest, p)
        acc = (acc + gj * cur) % p
        shifted = np.zeros_like(cur)
        shifted[:, 1:] = cur[:, :-1]
        cur = (shifted - cur[:, -1:] * mod) % p
    times_g = (acc * place).sum(axis=1).tolist()
    powers = [1]
    for _ in range(order - 1):
        powers.append(times_g[powers[-1]])
    return powers


class _Arith:
    """Elementwise F_q arithmetic on int64 arrays of element codes.

    Prime fields multiply and subtract mod p.  Extensions multiply through
    log/antilog tables of a primitive element g: log[0] is the sentinel
    Z = 3(q - 1), exp repeats the powers of g below Z and is zero from Z
    on, so exp[log a + log b] = a b for every pair of codes without a
    branch.  They subtract by xor of codes for p = 2, and for odd p
    through a Zech table: a - b = exp[log a + zech[log b - log a + Z]],
    with a zero on either side covered by the table too.  inv (inv[0] = 0)
    and frob (a -> a^p) are tables of q entries.  Every table is O(q).
    """

    def __init__(self, field: FieldContext):
        p, k, q = field.p, field.k, field.q
        self.p, self.k = p, k
        m = q - 1
        powers = np.array(_primitive_powers(field), dtype=np.int64)
        self.log_zero = 3 * m
        self.exp = np.zeros(6 * m + 1, dtype=np.int64)
        self.exp[: self.log_zero] = np.tile(powers, 3)
        self.log = np.empty(q, dtype=np.int64)
        self.log[powers] = np.arange(m)
        self.log[0] = self.log_zero
        self.inv = self.exp[(m - self.log) % m]
        self.inv[0] = 0
        self.frob = self.exp[p * self.log % m]
        self.frob[0] = 0
        if p > 2 and k > 1:
            # a - b with log b - log a = d: for a, b != 0 (d in [1 - m, 2m - 2],
            # as b may be a product with its log unreduced) the result is
            # a (1 - g^d); for a = 0 (d in [-3m, -m - 2]) it is
            # -b = exp[log b + m/2]; for b = 0 (d > 2m) it is a, zech 0.  When
            # both are zero, d >= 0 and every zech entry there is >= 0, so
            # the exp index reaches Z and the result is 0.
            place = p ** np.arange(k, dtype=np.int64)
            digits = np.arange(q, dtype=np.int64)[:, None] // place % p
            one = np.eye(1, k, dtype=np.int64)  # the digits of 1
            one_minus = ((one - digits) % p * place).sum(axis=1)  # 1 - a for every code a
            self.zech = np.zeros(9 * m + 1, dtype=np.int64)
            d = np.arange(1 - m, 2 * m - 1)
            self.zech[d + self.log_zero] = self.log[one_minus[self.exp[d % m]]]
            d = np.arange(-self.log_zero, -m - 1)
            self.zech[d + self.log_zero] = d + m // 2

    def _minus_log(self, a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
        # a - b for odd p, b given by its log
        log_a = self.log[a]
        return self.exp[log_a + self.zech[log_b - log_a + self.log_zero]]

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a - b) % self.p
        return self._minus_log(a, self.log[b])

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return a * b % self.p
        return self.exp[self.log[a] + self.log[b]]

    def operand(self, g: np.ndarray) -> np.ndarray:
        # g as axpy takes it: its logs for an extension
        return g if self.k == 1 else self.log[g]

    def axpy(self, r: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
        """r - c[:, None] * g, for g prepared by operand."""
        if self.k == 1:
            return (r - c[:, None] * g) % self.p
        log_cg = self.log[c][:, None] + g
        if self.p == 2:
            return r ^ self.exp[log_cg]
        return self._minus_log(r, log_cg)


def _block_coeffs(q: int, n: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, q)
    return out


def _trial_flags_block(field: FieldContext, n: int, lo: int, hi: int) -> np.ndarray:
    q = field.q
    rows = hi - lo
    if n == 1:
        return np.ones(rows, dtype=bool)
    ar = field._arith()
    work = np.empty((rows, n + 1), dtype=np.int64)
    work[:, :n] = _block_coeffs(q, n, lo, hi)
    work[:, n] = 1
    reducible = np.zeros(rows, dtype=bool)
    alive_idx = np.arange(rows)
    cur = work
    # rows found reducible stay in cur until dividing them again would cost
    # about as much as dropping them: a row costs d (n - d + 1) products
    # per divisor, a drop copies every alive row once
    stale = 0
    for d in range(1, n // 2 + 1):
        for gidx in range(q**d):
            g = ar.operand(np.array(_index_coeffs(q, d, gidx), dtype=np.int64))
            r = cur.copy()
            for j in range(n, d - 1, -1):
                r[:, j - d : j] = ar.axpy(r[:, j - d : j], r[:, j], g)
            divisible = ~r[:, :d].any(axis=1)
            hits = np.count_nonzero(divisible)
            if hits:
                reducible[alive_idx[divisible]] = True
                stale += hits
                if 4 * stale * d * (n - d + 1) > alive_idx.size:
                    keep = ~reducible[alive_idx]
                    alive_idx = alive_idx[keep]
                    cur = cur[keep]
                    stale = 0
                    if alive_idx.size == 0:
                        return ~reducible
    return ~reducible


def _reduce(ar: _Arith, prod: np.ndarray, f: np.ndarray) -> np.ndarray:
    # rowwise prod mod f, top column first; f prepared by ar.operand
    n = f.shape[1]
    for j in range(prod.shape[1] - 1, n - 1, -1):
        prod[:, j - n : j] = ar.axpy(prod[:, j - n : j], prod[:, j], f)
    return prod[:, :n].copy()  # lets prod go


def _negated(ar: _Arith, b: np.ndarray) -> np.ndarray:
    return ar.operand(ar.sub(0, b))


def _mulmod(ar: _Arith, a: np.ndarray, neg_b: np.ndarray, f: np.ndarray) -> np.ndarray:
    # rowwise a b mod f, for neg_b = _negated(ar, b)
    rows, n = a.shape
    prod = np.zeros((rows, 2 * n - 1), dtype=np.int64)
    for i in range(n):
        prod[:, i : i + n] = ar.axpy(prod[:, i : i + n], a[:, i], neg_b)
    return _reduce(ar, prod, f)


def _x_to_the_p(ar: _Arith, f: np.ndarray) -> np.ndarray:
    # rowwise x^p mod f by square and multiply, for deg f >= 2
    x = np.zeros(f.shape, dtype=np.int64)
    x[:, 1] = 1
    neg_x = _negated(ar, x)
    out = x
    for bit in bin(ar.p)[3:]:
        out = _mulmod(ar, out, _negated(ar, out), f)
        if bit == "1":
            out = _mulmod(ar, out, neg_x, f)
    return out


def _spread(t: np.ndarray, p: int) -> np.ndarray:
    # sum t_i x^(pi), rowwise
    out = np.zeros((t.shape[0], p * (t.shape[1] - 1) + 1), dtype=np.int64)
    out[:, ::p] = t
    return out


def _batch_pow_q(ar: _Arith, t: np.ndarray, f: np.ndarray, neg_xp: np.ndarray | None) -> np.ndarray:
    # rowwise t^q mod f (f prepared by ar.operand) in k rounds of
    # t -> t^p = sum t_i^p x^(pi), which holds in characteristic p.  A
    # round places the t_i^p p columns apart and reduces the whole spread,
    # (p - 1)(n - 1) steps; with neg_xp = -(x^p mod f) given it runs Horner's
    # rule in x^p instead, n - 1 products of about 2n steps each.
    p, k = ar.p, ar.k
    n = t.shape[1]
    for _ in range(k):
        if k > 1:
            t = ar.frob[t]
        if neg_xp is None:
            t = _reduce(ar, _spread(t, p), f)
        else:
            c = t
            t = np.zeros_like(c)
            t[:, 0] = c[:, n - 1]
            for i in range(n - 2, -1, -1):
                t = _mulmod(ar, t, neg_xp, f)
                t[:, 0] = ar.sub(t[:, 0], ar.sub(0, c[:, i]))
    return t


def _degrees(a: np.ndarray) -> np.ndarray:
    # rowwise degree of coefficient rows (constant term first); -1 for zero
    nonzero = a != 0
    top = a.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), top, -1)


def _coprime_rows(ar: _Arith, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise verdict gcd(a, b) = 1 for coefficient matrices of one
    shape (rows, m), constant term first.

    Euclid's algorithm on all rows at once, one leading term per step: the
    row of higher degree loses its leading term to a multiple of the other
    row shifted into place, so deg a + deg b falls every step and at most
    2m steps run.  A row is done when one side is zero; the gcd is then
    the other side, a unit iff it has degree 0.
    """
    m = a.shape[1]
    cols = np.arange(m)
    out = np.zeros(a.shape[0], dtype=bool)
    live = np.arange(a.shape[0])
    while live.size:
        da, db = _degrees(a), _degrees(b)
        swap = da < db
        a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
        da, db = np.maximum(da, db), np.minimum(da, db)
        done = db < 0
        if done.any():
            out[live[done]] = da[done] == 0
            keep = ~done
            live, a, b, da, db = live[keep], a[keep], b[keep], da[keep], db[keep]
        rows = np.arange(live.size)
        c = ar.mul(a[rows, da], ar.inv[b[rows, db]])
        # b x^(da - db): columns above deg b are zero, so a cyclic shift
        # brings only zeros round to the bottom
        shifted = np.take_along_axis(b, (cols - (da - db)[:, None]) % m, axis=1)
        a = ar.axpy(a, c, ar.operand(shifted))
    return out


def _rabin_flags_block(field: FieldContext, n: int, lo: int, hi: int) -> np.ndarray:
    rows = hi - lo
    if n == 1:
        return np.ones(rows, dtype=bool)
    ar = field._arith()
    fmat = _block_coeffs(field.q, n, lo, hi)
    f = ar.operand(fmat)
    x = np.zeros((rows, n), dtype=np.int64)
    x[:, 1] = 1
    # Horner's rule is the cheaper round once p > 2n, and the spread of
    # p (n - 1) + 1 columns per row would grow with p
    neg_xp = _negated(ar, _x_to_the_p(ar, f)) if field.p > 2 * n else None
    checkpoints = {n // l for l in _prime_factors(n)}
    saved: dict[int, np.ndarray] = {}
    t = x
    for j in range(1, n + 1):
        t = _batch_pow_q(ar, t, f, neg_xp)
        if j in checkpoints:
            saved[j] = t
    flags = (t == x).all(axis=1)
    # survivors have all factor degrees dividing n; finish them with the
    # gcd conditions on the saved intermediate powers
    for arr in saved.values():
        idx = np.nonzero(flags)[0]
        monic = np.ones((idx.size, n + 1), dtype=np.int64)
        monic[:, :n] = fmat[idx]
        h = np.zeros_like(monic)
        h[:, :n] = ar.sub(arr[idx], x[: idx.size])
        flags[idx] = _coprime_rows(ar, monic, h)
    return flags


# ---------------------------------------------------------------------------
# GF(2) word engine
# ---------------------------------------------------------------------------
#
# Over F_2 a monic polynomial of degree n <= 32 is one uint64 word, bit i the
# coefficient of x^i, the leading bit n included.  Addition is xor; a square
# spreads bit i to bit 2i, at most bit 62.  Verdicts match the scalar tests
# row for row.


def _gf2_words(n: int, lo: int, hi: int) -> np.ndarray:
    # enumeration index -> word.  The index has c_0 as its most significant
    # binary digit, so the free coefficients are its n bits reversed.
    idx = np.arange(lo, hi, dtype=np.uint64)
    words = np.full(hi - lo, 1 << n, dtype=np.uint64)
    for i in range(n):
        words |= ((idx >> (n - 1 - i)) & 1) << i
    return words


def _gf2_spread_table() -> np.ndarray:
    # byte b -> its square: bit i of b moved to bit 2i
    b = np.arange(256, dtype=np.uint64)
    out = np.zeros(256, dtype=np.uint64)
    for i in range(8):
        out |= ((b >> i) & 1) << (2 * i)
    return out


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << (da - db)
        a, b = b, a
    return a


def _gf2_rabin_flags_block(n: int, lo: int, hi: int) -> np.ndarray:
    rows = hi - lo
    if n == 1:
        return np.ones(rows, dtype=bool)
    f = _gf2_words(n, lo, hi)
    # f_shift[s] = f * x^s cancels bit n + s of a square
    f_shift = [f << s for s in range(n - 1)]
    spread = _gf2_spread_table()
    nbytes = (n + 7) // 8
    bit = np.empty(rows, dtype=np.uint64)
    x = 2  # the word of x, reduced since n >= 2
    checkpoints = {n // l for l in _prime_factors(n)}
    saved: dict[int, np.ndarray] = {}
    t = np.full(rows, x, dtype=np.uint64)
    for j in range(1, n + 1):
        sq = spread[t & 255]
        for b in range(1, nbytes):
            sq |= spread[(t >> (8 * b)) & 255] << (16 * b)
        for s in range(n - 2, -1, -1):
            np.right_shift(sq, n + s, out=bit)
            bit &= 1
            bit *= f_shift[s]
            sq ^= bit
        t = sq
        if j in checkpoints:
            saved[j] = t
    flags = t == x
    # survivors have all factor degrees dividing n; finish them with the
    # gcd conditions on the saved intermediate powers
    for ridx in np.nonzero(flags)[0]:
        fi = int(f[ridx])
        for arr in saved.values():
            if _gf2_gcd(fi, int(arr[ridx]) ^ x) != 1:
                flags[ridx] = False
                break
    return flags


def _gf2_trial_flags_block(n: int, lo: int, hi: int) -> np.ndarray:
    rows = hi - lo
    if n == 1:
        return np.ones(rows, dtype=bool)
    cur = _gf2_words(n, lo, hi)
    reducible = np.zeros(rows, dtype=bool)
    alive_idx = np.arange(rows)
    for d in range(1, n // 2 + 1):
        for g in range(1 << d, 2 << d):  # every monic divisor of degree d
            r = cur.copy()
            bit = np.empty_like(r)
            for j in range(n, d - 1, -1):
                np.right_shift(r, j, out=bit)
                bit &= 1
                bit *= g << (j - d)
                r ^= bit
            divisible = r == 0
            if divisible.any():
                reducible[alive_idx[divisible]] = True
                keep = ~divisible
                alive_idx = alive_idx[keep]
                cur = cur[keep]
                if alive_idx.size == 0:
                    return ~reducible
    return ~reducible


def _scalar_flags_block(field, n, lo, hi, method):
    test = is_irreducible_trial if method == "trial" else is_irreducible_rabin
    out = np.empty(hi - lo, dtype=bool)
    for i, idx in enumerate(range(lo, hi)):
        poly = MonicPoly(field, _index_coeffs(field.q, n, idx) + (1,))
        out[i] = test(poly)
    return out


def _flags_range(field, n, lo, hi, method) -> np.ndarray:
    if field.q == 2 and n <= _GF2_MAX_N:
        block = partial(_gf2_trial_flags_block if method == "trial" else _gf2_rabin_flags_block, n)
    else:
        block = partial(_trial_flags_block if method == "trial" else _rabin_flags_block, field, n)
    parts = [block(blk_lo, min(blk_lo + _BLOCK, hi)) for blk_lo in range(lo, hi, _BLOCK)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def irreducible_flags(
    field: FieldContext, n: int, method: str = "rabin", budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Boolean verdict for every monic degree-n polynomial, in
    enumeration order.  Same budget rule as enumerate_monic."""
    total = check_sweep(field.p, field.k, n, method, budget)
    return _flags_range(field, n, 0, total, method)


def _count_range(args) -> int:
    p, k, n, lo, hi, method = args
    field = build_field(p, k)
    return int(_flags_range(field, n, lo, hi, method).sum())


def count_irreducibles(
    field: FieldContext,
    n: int,
    method: str = "rabin",
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> int:
    """Number of monic degree-n irreducibles over F_q by full enumeration
    with the chosen test ('trial' or 'rabin').

    The q^n sweep may be partitioned into contiguous blocks counted in
    parallel (workers > 1); the result is independent of the worker count.
    """
    total = check_sweep(field.p, field.k, n, method, budget)
    if n == 1:
        return total  # every monic linear polynomial is irreducible
    if workers <= 1:
        return int(_flags_range(field, n, 0, total, method).sum())
    bounds = np.linspace(0, total, workers + 1, dtype=np.int64)
    jobs = [
        (field.p, field.k, n, int(lo), int(hi), method)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_range, jobs))
