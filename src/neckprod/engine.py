"""The counting engine: vectorized irreducibility verdicts over blocks of
monic polynomials.

finitefield.irreducible_flags and finitefield.count_irreducibles import
this module when a sweep runs, after check_sweep has accepted it, so numpy
is loaded by sweeps only.  Every field with q <= MAX_ENGINE_Q = 2^16 is
swept on integer codes: for prime fields mod-p arithmetic, reduced lazily in
the narrowest of int16/int32/int64 its checked bound admits; for extensions
int64, products through log/antilog tables and differences as xor (p = 2)
or through a Zech table (odd p).

* trial -- a product sieve on every field: it marks each product g h of a
  monic irreducible g of degree <= n/2 and a monic h, so the rows left
  unmarked are those trial division finds no divisor of.
* rabin -- the Frobenius ladder t -> t^q = sum_i t_i (x^(iq) mod f) on (n, rows)
  blocks, then Bernstein-Yang divsteps batched over the survivors.  Over F_2
  both are bit-sliced, 64 rows to a uint64 word.

Every path is held row for row to the scalar is_irreducible_* tests of
finitefield, which share no code or table with them.
"""

from __future__ import annotations

import numpy as np

from .finitefield import FieldContext, _prime_factors

_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Block engine
# ---------------------------------------------------------------------------
#
# Every engine array is coefficient-major, (coefficients, rows); the ladder
# holds a block of monic polynomials of degree n >= 2 as its n free
# coefficients, the leading 1 implicit.  _Arith supplies the elementwise field
# arithmetic for every q <= MAX_ENGINE_Q and alone decides when to reduce.


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
    """Elementwise F_q arithmetic on integer arrays of element codes.

    Odd prime fields multiply and subtract mod p.  F_2 adds by xor and
    multiplies by and, which is the same arithmetic on 0/1 codes and on
    words holding one code per bit (the ladder's bit-sliced blocks).
    Extensions multiply through log/antilog tables of a primitive element g:
    log[0] is the sentinel Z = 3(q - 1), exp repeats the powers of g below Z
    and is zero from Z on, so exp[log a + log b] = a b for every pair of
    codes without a branch.  They subtract by xor of codes for p = 2, and for
    odd p through a Zech table: a - b = exp[log a + zech[log b - log a + Z]],
    with a zero on either side covered by the table too.  inv (inv[0] = 0)
    has q entries and serves the sieve only.  Every table is O(q).

    Operands of mul and sub and multipliers of axpy are canonical codes.
    Over an odd prime field axpy leaves r unreduced until reduce, after a caller
    has passed the bound on its steps and r's dtype to check_headroom, which
    names the narrowest dtype for a bound (int64 for extension gather indices).
    """

    def __init__(self, field: FieldContext):
        p, k, q = field.p, field.k, field.q
        self.p, self.k = p, k
        self.lazy = k == 1 and p > 2  # mod-p values reduced only by reduce
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
            return self.reduce(a - b)
        return self._minus_log(a, self.log[b])

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k > 1:
            return self.exp[self.log[a] + self.log[b]]
        return self.reduce(a * b) if self.lazy else a & b

    def operand(self, g: np.ndarray) -> np.ndarray:
        # g as axpy takes it: its logs for an extension
        return g if self.k == 1 else self.log[g]

    def axpy(self, r: np.ndarray, c: np.ndarray, g: np.ndarray) -> None:
        # r -= c g in place, for g prepared by operand and c broadcast against it
        if self.lazy:
            r -= c * g
        elif self.k == 1:
            r ^= c & g
        elif self.p == 2:
            log_cg = self.log[c] + g
            # written over log_cg, one temporary fewer; mode clip (indices are in
            # range) keeps take from buffering out
            r ^= np.take(self.exp, log_cg, out=log_cg, mode="clip")
        else:
            r[...] = self._minus_log(r, self.log[c] + g)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        # a's canonical codes, as a new array; floor division beats % on every
        # width, and numpy reuses the temporary a // p for both later steps
        return a // self.p * -self.p + a if self.lazy else a.copy()

    def check_headroom(self, terms: int, dtype=np.int64) -> np.dtype:
        # the narrowest dtype keeping a sum of terms values within (p - 1)^2 of zero
        # below 2^(bits - 2), as int64's 2^62; refused if wider than dtype
        bits = (terms * (self.p - 1) ** 2).bit_length() + 2
        need = np.dtype(np.int64 if self.k > 1 or bits > 32 else np.int32 if bits > 16 else np.int16)
        if bits > 64 or need.itemsize > np.dtype(dtype).itemsize:
            raise OverflowError(f"lazy reduction of {terms} terms mod {self.p} could overflow {np.dtype(dtype)}")
        return need


def _arith(field: FieldContext) -> _Arith:
    # the field's tables, built on its first engine use and kept on it
    if field._engine_arith is None:
        field._engine_arith = _Arith(field)
    return field._engine_arith


def _coeffs(q: int, n: int, idx: np.ndarray, dtype) -> np.ndarray:
    # enumeration indices -> free coefficients (n, rows), c_0 the top digit
    out = np.empty((n, idx.size), dtype=dtype)
    for j in range(n - 1, -1, -1):
        idx, out[j] = np.divmod(idx, q)
    return out


def _reduce(ar: _Arith, prod: np.ndarray, f: np.ndarray) -> np.ndarray:
    # prod mod f, top coefficient first; f prepared by ar.operand.  An entry
    # starts within width (p - 1)^2 of zero and takes at most n steps.
    width, n = prod.shape[0], f.shape[0]
    ar.check_headroom(width + n, prod.dtype)
    for j in range(width - 1, n - 1, -1):
        ar.axpy(prod[j - n : j], ar.reduce(prod[j]), f)
    return ar.reduce(prod[:n])


def _negated(ar: _Arith, b: np.ndarray) -> np.ndarray:
    return ar.operand(ar.sub(0, b))


def _mulmod(ar: _Arith, a: np.ndarray, neg_b: np.ndarray, f: np.ndarray) -> np.ndarray:
    # a b mod f, coefficient-major, for neg_b = _negated(ar, b): n steps
    # accumulate -a_i (-b), within the bound _reduce checks
    n, rows = a.shape
    prod = np.zeros((2 * n - 1, rows), dtype=a.dtype)
    for i in range(n):
        ar.axpy(prod[i : i + n], a[i], neg_b)
    return _reduce(ar, prod, f)


def _frobenius_columns(ar: _Arith, q: int, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    # -C_i for C_i = x^(iq) mod f, i < n, stacked (n, n, rows): up to q = 2n
    # -C_(i-1) shifted up q degrees, at most n - 1 at a time, above -C_(i-1) x^q
    # with x^q by square and multiply.  Every _reduce takes at most 3n - 1 terms.
    n = x.shape[0]
    cols = np.zeros((n,) + x.shape, dtype=x.dtype)
    cols[0, 0] = ar.sub(0, x[1])  # -1, with x's zero padding past the last row
    if q <= 2 * n:
        for i in range(1, n):
            cols[i] = cols[i - 1]
            for done in range(0, q, n - 1):
                cols[i] = _reduce(ar, np.pad(cols[i], ((min(n - 1, q - done), 0), (0, 0))), f)
        return cols
    xq, neg_x = x, _negated(ar, x)
    for bit in bin(q)[3:]:
        xq = _mulmod(ar, xq, _negated(ar, xq), f)
        if bit == "1":
            xq = _mulmod(ar, xq, neg_x, f)
    cols[1], neg_xq = ar.sub(0, xq), _negated(ar, xq)
    for i in range(2, n):
        cols[i] = _mulmod(ar, cols[i - 1], neg_xq, f)
    return cols


def _pack(bits: np.ndarray) -> np.ndarray:
    # (m, rows) 0/1 codes -> (m, ceil(rows / 64)) bit-sliced words: bit j of
    # word w is row 64 w + j, rows past the end are zero (packbits reads bool
    # about 10x faster than int16)
    words = np.zeros((bits.shape[0], -(-bits.shape[1] // 64)), dtype="<u8")
    words.view(np.uint8)[:, : -(-bits.shape[1] // 8)] = np.packbits(bits != 0, axis=-1, bitorder="little")
    return words


def _unpack(words: np.ndarray, rows: int) -> np.ndarray:
    # the first rows codes of each row of words, as uint8 0/1
    return np.unpackbits(words.view(np.uint8), axis=-1, count=rows, bitorder="little")


def _coprime(ar: _Arith, a: np.ndarray, b: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Columnwise verdict gcd(a, b) = 1 for coefficient-major matrices of one
    shape (m, columns), constant term first, a monic of degree m - 1 and b of
    lower degree.  With rows given, a and b hold that many polynomials over
    F_2, packed into bit-sliced words by _pack.

    Bernstein and Yang's divsteps (2019, theorem 6.2) on the reversed
    polynomials f = x^(m-1) a(1/x), f_0 = 1, and g = x^(m-2) b(1/x): from
    delta = 1, 2m - 3 identical steps on every column, each a conditional
    swap and g <- (f_0 g - g_0 f) / x, with no inverse and no degree scan.
    The gcd then has degree delta / 2.  Step i reads no coefficient of f or
    g past 2m - 4 - i, so the arrays shrink once that is below m.
    """
    m = a.shape[0]
    f, g = a[::-1].copy(), np.zeros_like(b)
    g[: m - 1] = b[m - 2 :: -1]
    delta = np.ones(a.shape[1] if rows is None else rows, dtype=np.int16)
    for step in range(2 * m - 3):
        f, g = f[: 2 * m - 3 - step], g[: 2 * m - 3 - step]
        swap = (delta > 0) & ((g[0] if rows is None else _unpack(g[:1], rows)[0]) != 0)
        delta = np.where(swap, -delta, delta) + 1
        h = ar.mul(f[0], g[1:])
        ar.axpy(h, g[0], ar.operand(f[1:]))
        f ^= (f ^ g) & (-swap.astype(f.dtype) if rows is None else _pack(swap[None])[0])
        g[:-1], g[-1] = ar.reduce(h), 0
    return delta == 0


def _rabin_flags_block(field: FieldContext, n: int, lo: int, hi: int) -> np.ndarray:
    ar = _arith(field)
    dtype = ar.check_headroom(3 * n - 1)  # the largest _reduce, of a column or of a product
    fmat = _coeffs(field.q, n, np.arange(lo, hi, dtype=np.int64), dtype)
    x = np.zeros((n, hi - lo), dtype=dtype)
    x[1] = 1
    # over F_2 the ladder runs on bit-sliced words, 64 rows each, through the
    # same xor arithmetic, and its powers are unpacked to gather the survivors
    packed = field.q == 2
    f = ar.operand(_pack(fmat) if packed else fmat)
    t = _pack(x) if packed else x
    # t -> t^q is F_q-linear: t^q = sum_i t_i C_i, n lazy terms
    neg_cols = ar.operand(_frobenius_columns(ar, field.q, t, f))
    placed = -(-n // field.q)  # C_i = x^(iq) is a single 1 for iq < n: t_i is placed
    checkpoints = {n // l for l in _prime_factors(n)}
    saved: dict[int, np.ndarray] = {}
    for j in range(1, n + 1):
        acc = np.zeros_like(t)
        acc[:: field.q] = t[:placed]
        for i in range(placed, n):
            ar.axpy(acc, t[i], neg_cols[i])
        t = ar.reduce(acc)
        if j in checkpoints:
            saved[j] = _unpack(t, hi - lo) if packed else t
    flags = ((_unpack(t, hi - lo) if packed else t) == x).all(axis=0)
    # survivors have all factor degrees dividing n; finish them with the gcd
    # conditions on the saved intermediate powers, over F_2 packed again
    for arr in saved.values():
        idx = np.flatnonzero(flags)
        monic = np.vstack([fmat[:, idx], np.ones_like(idx, dtype)])
        h = np.zeros_like(monic)
        h[:n] = ar.sub(arr[:, idx], x[:, idx])
        flags[idx] = _coprime(ar, _pack(monic), _pack(h), idx.size) if packed else _coprime(ar, monic, h)
    return flags


# ---------------------------------------------------------------------------
# Product sieve (--test trial)
# ---------------------------------------------------------------------------
#
# A monic f of degree n >= 2 has a monic divisor of degree 1..n/2 iff it is
# a product g h with g monic irreducible of degree d <= n/2, so marking every
# such product decides what trial division decides.  The g of degree d come
# from the sieve at degree d, never from the Rabin ladder.


def _sieve_block(field: FieldContext, n: int, s: int, base: int, factors: list[np.ndarray]) -> np.ndarray:
    # the block of q^s rows from base, a multiple of q^s, fixes the prefix
    # c_0..c_{n-s-1}.  That decides whether x divides, and for g_0 != 0 it
    # fixes the low coefficients of h, so only products in the block are formed.
    q, ar = field.q, _arith(field)
    dtype = np.result_type(np.int16, *factors)  # the dtype of every array below
    ar.check_headroom(n + 1, dtype)  # each phase below takes at most n steps from canonical codes
    fixed = n - s
    prefix = _coeffs(q, n, np.array([base]), dtype)[:fixed]
    flags = np.ones(q**s, dtype=bool)
    flags[: max(0, q ** (n - 1) - base)] = False  # c_0 = 0
    place = q ** np.arange(s - 1, -1, -1, dtype=np.int64)
    for g in factors:
        d = g.shape[0] - 1
        e = n - d
        known = min(fixed, e)
        op_g = ar.operand(g)
        inv_g0 = ar.inv[g[0]]
        # power series division of the prefix by g, each h_i stored over the
        # coefficient it clears: coefficients known..n-1, all read from here
        # on, then hold -g (h_0..h_{known-1} + x^e)
        f = np.zeros((n + 1, g.shape[1]), dtype=dtype)
        f[:known] = prefix[:known]
        f[e:] = ar.sub(0, g)
        for i in range(known):
            f[i] = ar.mul(ar.reduce(f[i]), inv_g0)
            ar.axpy(f[i + 1 : i + d + 1], f[i], op_g[1:])
        f = ar.sub(0, ar.reduce(f[known:n]))
        # h_t for t in [known, e) takes every value of F_q, each on a new
        # leading axis that op_g broadcasts over
        for t in range(e - known):
            c = np.arange(q, dtype=dtype).reshape((q,) + (1,) * f.ndim)
            f = np.broadcast_to(f, (q,) + f.shape).copy()
            ar.axpy(f[..., t : t + d + 1, :], c, op_g)
        f = ar.reduce(f)
        match = (f[..., : fixed - known, :] == prefix[known:]).all(axis=-2)
        flags[(place @ f[..., fixed - known :, :])[match]] = False
    return flags


def _flags_range(field, n, lo, hi, method) -> np.ndarray:
    if n == 1:
        return np.ones(hi - lo, dtype=bool)  # every monic linear polynomial
    q = field.q
    if method == "trial":
        # blocks of q^s rows aligned to q^s, s the largest with q^s <= _BLOCK;
        # a range that cuts a block computes all of it and keeps its slice
        s = 0
        while s < n and q ** (s + 1) <= _BLOCK:
            s += 1
        dtype = _arith(field).check_headroom(n + 1)
        factors = []  # the monic irreducibles of degree d other than x, (d + 1, m)
        for d in range(1, n // 2 + 1):
            idx = np.flatnonzero(_flags_range(field, d, 0, q**d, "trial"))
            idx = idx[idx >= q ** (d - 1)]  # c_0 != 0
            factors.append(_coeffs(q, d + 1, idx * q + 1, dtype))  # the leading 1 as last digit
        start = lo - lo % q**s
        flags = np.concatenate([_sieve_block(field, n, s, base, factors) for base in range(start, hi, q**s)])
        return flags[lo - start : hi - start]
    # the columns hold n^2 codes a row: _BLOCK // n rows a block, but _BLOCK for packed F_2
    step = _BLOCK if q == 2 else _BLOCK // n
    parts = [_rabin_flags_block(field, n, blk_lo, min(blk_lo + step, hi)) for blk_lo in range(lo, hi, step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _count_range(args) -> int:
    (p, k, modulus), n, lo, hi, method = args
    return int(_flags_range(FieldContext(p, k, modulus), n, lo, hi, method).sum())
