"""The counting engine over p >= 5, on numpy blocks of base-p digits.

Block functions only: neckprod.engine, which runs every sweep, cuts each
range and calls them for p >= 5, each returning one int a cut as its plane
forms do.  They hold for any odd p, and the tests hold the F_(3^k) planes
to them.  Every array is coefficient-major, (coefficients, k, rows), with
no table (see _Arith); a block of monic polynomials holds its n free
coefficients, the leading 1 implicit.

* trial -- a product sieve: it marks each product g h of a monic
  irreducible g of degree <= n/2 and a monic h.
* rabin -- the Frobenius ladder on (n, k, rows) blocks, then Bernstein-Yang
  divsteps batched over the survivors.
"""

from __future__ import annotations

import numpy as np

from . import engine


class _Arith:
    """Elementwise F_q arithmetic, q = p^k with p odd, on integer arrays of
    base-p digits.

    An element of F_(p^k) is held as its k digits over F_p, v_0..v_(k-1) of
    its code sum v_i p^i, on the second axis from the end, rows last; prime
    fields are k = 1.  The digits are mod-p values, kept in the narrowest of
    int16/int32/int64 their checked bound admits; _Arith alone decides when
    to reduce.

    A product c g is the digit convolution sum_a c_a (y^a g) folded by the
    field modulus, y the generator of F_q over F_p: multiples holds the
    y^a g, each the one before shifted up a digit with its top digit folded,
    and axpy runs one pass of each digit c_a against them.  A multiplier
    with one digit row is an element of F_p.  No table is built.

    Operands of mul, sub and multiples and multipliers of axpy are canonical
    digits.  axpy leaves r unreduced until reduce, after a caller has passed
    the bound on its steps and r's dtype to check_headroom, which names the
    narrowest dtype for a bound.
    """

    def __init__(self, field):
        self.p, self.k = field.p, field.k
        self.low = np.array(field.modulus[: self.k])[:, None]  # y^k = -sum_i m_i y^i

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a - b)

    def multiples(self, g: np.ndarray) -> np.ndarray:
        # y^a g for a < k, stacked on a new leading axis
        if self.k == 1:
            return g[None]
        ys = np.empty((self.k,) + g.shape, dtype=g.dtype)
        ys[0] = g
        low = self.low.astype(g.dtype)
        for a in range(1, self.k):
            ys[a, ..., 0, :] = 0
            ys[a, ..., 1:, :] = ys[a - 1, ..., :-1, :]
            ys[a] -= ys[a - 1, ..., -1:, :] * low
            ys[a] = self.reduce(ys[a])
        return ys

    def axpy(self, r: np.ndarray, c: np.ndarray, ys: np.ndarray) -> None:
        # r -= c g in place for ys = multiples(g), c broadcast against g
        if c.shape[-2] == 1:  # every multiplier over F_p: no slicing in the hot loops
            r -= c * ys[0]
            return
        for a in range(c.shape[-2]):
            r -= c[..., a : a + 1, :] * ys[a]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a b, from the multiples of a
        ys = self.multiples(a)
        r = b[..., :1, :] * ys[0]
        for i in range(1, b.shape[-2]):
            r += b[..., i : i + 1, :] * ys[i]
        return self.reduce(r)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        # a's canonical digits, as a new array; floor division beats % on
        # every width, and numpy reuses the temporary a // p for both later steps
        return a // self.p * -self.p + a

    def check_headroom(self, terms: int, dtype=np.int64) -> np.dtype:
        # the narrowest dtype keeping a sum of terms products below
        # 2^(bits - 2), as int64's 2^62; refused if wider than dtype.  A
        # product c g of the k x k digit convolution is k passes c_a (y^a g),
        # each within (p - 1)^2 of zero: the modulus fold is taken and reduced
        # in the multiples y^a g, so it adds no term.
        bits = (terms * self.k * (self.p - 1) ** 2).bit_length() + 2
        need = np.dtype(np.int64 if bits > 32 else np.int32 if bits > 16 else np.int16)
        if bits > 64 or need.itemsize > np.dtype(dtype).itemsize:
            raise OverflowError(f"lazy reduction of {terms} terms mod {self.p} could overflow {np.dtype(dtype)}")
        return need


def _coeffs(field, n: int, idx: np.ndarray, dtype) -> np.ndarray:
    # enumeration indices -> the digits (n, k, rows) of the free coefficients,
    # c_0 the top base-q digit of an index
    out = np.empty((n, field.k, idx.size), dtype=dtype)
    for j in range(n - 1, -1, -1):
        for i in range(field.k):
            idx, out[j, i] = np.divmod(idx, field.p)
    return out


def _power(ar: _Arith, a: np.ndarray, e: int) -> np.ndarray:
    # a^e by square and multiply from 1; 1 / a = a^(q - 2) for a != 0
    r = np.eye(ar.k, 1, dtype=a.dtype)
    for bit in bin(e)[2:]:
        r = ar.mul(r, r)
        if bit == "1":
            r = ar.mul(r, a)
    return r


def _reduce(ar: _Arith, prod: np.ndarray, fs: np.ndarray) -> np.ndarray:
    # prod mod f, top coefficient first, for fs = multiples(f).  An entry
    # starts within width products of zero and takes at most n steps.
    width, n = prod.shape[0], fs.shape[1]
    ar.check_headroom(width + n, prod.dtype)
    for j in range(width - 1, n - 1, -1):
        ar.axpy(prod[j - n : j], ar.reduce(prod[j]), fs)
    return ar.reduce(prod[:n])


def _shifted(ar: _Arith, a: np.ndarray, e: int, fs: np.ndarray) -> np.ndarray:
    # a x^e mod f, shifted up at most n - 1 degrees a time
    n = a.shape[0]
    for done in range(0, e, n - 1):
        a = _reduce(ar, np.pad(a, ((min(n - 1, e - done), 0), (0, 0), (0, 0))), fs)
    return a


def _mulmod(ar: _Arith, a: np.ndarray, neg_bs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    # a b mod f, coefficient-major, for neg_bs = multiples(-b): n steps
    # accumulate -a_i (-b), within the bound _reduce checks
    prod = np.zeros((2 * a.shape[0] - 1,) + a.shape[1:], dtype=a.dtype)
    for i in range(a.shape[0]):
        ar.axpy(prod[i : i + a.shape[0]], a[i], neg_bs)
    return _reduce(ar, prod, fs)


def _frobenius_columns(ar: _Arith, q: int, x: np.ndarray, fs: np.ndarray) -> np.ndarray:
    # -C_i for C_i = x^(iq) mod f, i < n, stacked (n, n, k, rows): up to q = 2n
    # -C_(i-1) shifted up q degrees, above -C_(i-1) x^q by square and multiply.
    # Every _reduce takes at most 3n - 1 terms.
    n = x.shape[0]
    cols = np.zeros((n,) + x.shape, dtype=x.dtype)
    cols[0, 0] = ar.sub(0, x[1])  # -1
    if q <= 2 * n:
        for i in range(1, n):
            cols[i] = _shifted(ar, cols[i - 1], q, fs)
        return cols
    xq = x
    for bit in bin(q)[3:]:
        xq = _mulmod(ar, xq, ar.multiples(ar.sub(0, xq)), fs)
        if bit == "1":
            xq = _shifted(ar, xq, 1, fs)
    cols[1] = ar.sub(0, xq)
    neg_xqs = ar.multiples(cols[1])
    for i in range(2, n):
        cols[i] = _mulmod(ar, cols[i - 1], neg_xqs, fs)
    return cols


def _coprime(ar: _Arith, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise verdict gcd(a, b) = 1 for coefficient-major digit arrays of
    one shape (m, k, columns), constant term first, a monic of degree m - 1
    and b of lower degree.

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
    delta = np.ones(a.shape[-1], dtype=np.int16)
    for step in range(2 * m - 3):
        f, g = f[: 2 * m - 3 - step], g[: 2 * m - 3 - step]
        g0 = np.bitwise_or.reduce(g[0], axis=0)  # nonzero where any digit of g_0 is
        swap = (delta > 0) & (g0 != 0)
        delta = np.where(swap, -delta, delta) + 1
        h = ar.mul(f[0], g[1:])
        ar.axpy(h, f[1:], ar.multiples(g[0]))
        f ^= (f ^ g) & -swap.astype(f.dtype)
        g[:-1], g[-1] = ar.reduce(h), 0
    return delta == 0


def _rabin_flags_block(field, n: int, lo: int, hi: int) -> int:
    ar = _Arith(field)
    dtype = ar.check_headroom(3 * n - 1)  # the largest _reduce, of a column or of a product
    fmat = _coeffs(field, n, np.arange(lo, hi, dtype=np.int64), dtype)
    x = np.zeros(fmat.shape, dtype)  # calloc: only the pages of x[1, 0] are written
    x[1, 0] = 1
    fs = ar.multiples(fmat)
    # t -> t^q is F_q-linear: t^q = sum_i t_i C_i, n lazy terms
    neg_cols = [ar.multiples(col) for col in _frobenius_columns(ar, field.q, x, fs)]
    placed = -(-n // field.q)  # C_i = x^(iq) is a single 1 for iq < n: t_i is placed
    checkpoints = engine._checkpoints(n)
    saved: dict[int, np.ndarray] = {}
    t = x
    for j in range(1, n + 1):
        acc = np.zeros_like(t)
        acc[:: field.q] = t[:placed]
        for i in range(placed, n):
            ar.axpy(acc, t[i], neg_cols[i])
        t = ar.reduce(acc)
        if j in checkpoints:
            saved[j] = t
    flags = (t == x).all(axis=(0, 1))
    # survivors have all factor degrees dividing n; finish them with the gcd
    # conditions on the saved intermediate powers
    for arr in saved.values():
        idx = np.flatnonzero(flags)
        monic = np.concatenate([fmat[..., idx], x[1:2, :, idx]])  # x's coefficient of x is the leading 1
        h = np.zeros_like(monic)
        h[:n] = ar.sub(arr[..., idx], x[..., idx])
        flags[idx] = _coprime(ar, monic, h)
    return _packed(flags)


# A monic f of degree n >= 2 has a monic divisor of degree 1..n/2 iff it is
# a product g h with g monic irreducible of degree d <= n/2, so marking every
# such product decides what trial division decides.  The g of degree d come
# from the sieve at degree d, never from the Rabin ladder.


def _sieve_block(field, n: int, s: int, base: int, factors: list) -> np.ndarray:
    # the block of q^s rows from base, a multiple of q^s, fixes the prefix
    # c_0..c_{n-s-1}.  That decides whether x divides, and for g_0 != 0 it
    # fixes the low coefficients of h, so only products in the block are formed.
    # Each factor list comes as the multiples of g and of g_1..g_d / g_0.
    p, k, ar = field.p, field.k, _Arith(field)
    dtype = np.result_type(np.int16, *(y_g for y_g, _ in factors))  # the dtype of every array below
    ar.check_headroom(n + 1, dtype)  # each phase below takes at most n steps from canonical digits
    fixed = n - s
    prefix = _coeffs(field, n, np.array([base]), dtype)[:fixed]
    flags = np.ones(field.q**s, dtype=bool)
    flags[: max(0, field.q ** (n - 1) - base)] = False  # c_0 = 0
    # a row's index in its block, below 2^16, is the digits of its free
    # coefficients c_(n-s)..c_(n-1), flattened, times their places q^(s-1-j) p^i
    place = np.array([field.q ** (s - 1 - j) * p**i for j in range(s) for i in range(k)], dtype=np.int64)
    for y_g, y_tail in factors:
        g = y_g[0]
        d = g.shape[0] - 1
        e = n - d
        known = min(fixed, e)
        # power series division of the prefix by g / g_0, each h_i g_0 stored
        # over the coefficient it clears, as (h_i g_0) (g / g_0) = h_i g:
        # coefficients known..n-1, all read from here on, then hold
        # -g (h_0..h_{known-1} + x^e)
        f = np.zeros((n + 1,) + g.shape[1:], dtype=dtype)
        f[:known] = prefix[:known]
        f[e:] = ar.sub(0, g)
        for i in range(known):
            f[i] = ar.reduce(f[i])
            ar.axpy(f[i + 1 : i + d + 1], f[i], y_tail)
        f = ar.sub(0, ar.reduce(f[known:n]))
        # the digit of y^i in h_t, for t in [known, e), takes every value of
        # F_p on a new leading axis that y^i g broadcasts over
        for t in range(e - known):
            for i in range(k):
                c = np.arange(p, dtype=dtype).reshape((p,) + (1,) * f.ndim)
                f = np.broadcast_to(f, (p,) + f.shape).copy()
                ar.axpy(f[..., t : t + d + 1, :, :], c, y_g[i : i + 1])
        f = ar.reduce(f)
        match = (f[..., : fixed - known, :, :] == prefix[known:]).all(axis=(-3, -2))
        index = place @ f[..., fixed - known :, :, :].reshape(f.shape[:-3] + (s * k, -1))
        flags[index[match]] = False
    return flags


def _trial_sieve(field, n: int, cuts: list, step: int) -> list[int]:
    # each cut lies in one aligned block of step = q^s rows: the sieve marks
    # the whole block and keeps the cut's rows
    q, ar = field.q, _Arith(field)
    s = next(s for s in range(n + 1) if q**s == step)
    dtype = ar.check_headroom(n + 1)
    factors = []  # per degree d, for the monic irreducibles g other than x
    for d in range(1, n // 2 + 1):
        idx = np.array([g for g in engine._irreducibles(field, d) if g >= q ** (d - 1)], dtype=np.int64)  # c_0 != 0
        g = _coeffs(field, d + 1, idx * q + 1, dtype)  # the leading 1 as last digit
        y_g = ar.multiples(g) if d < s else g[None]  # blocks enumerate h against y^a g only for d < s
        factors.append((y_g, ar.multiples(ar.mul(_power(ar, g[0], q - 2), g[1:]))))
    return [_packed(_sieve_block(field, n, s, a - a % step, factors)[a % step : b - a + a % step]) for a, b in cuts]


def _packed(flags: np.ndarray) -> int:
    # a cut's verdicts as one int, bit r for row r
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
