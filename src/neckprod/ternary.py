"""The counting engine's block functions over F_(3^k), on two-bit planes.

neckprod.engine, which runs every sweep, cuts each range and calls them
for p = 3, each returning one int a cut as its F_(2^k) form does; this
module is imported only then, so no other sweep compiles it.  Bit-sliced
F_3 arithmetic (Boothby and Bradshaw 2009, "Bitslicing and the method of
four Russians over larger finite fields"): a digit is the pair of Python
int planes (high, low), bit r of each for row r of a block, with
0 = (0, 0), 1 = (0, 1), 2 = (1, 0), so negation swaps them.  An element
of F_(3^k) is a list of k such digits, and fold lists (i, c) for
y^k = sum c y^i, c = -m_i the nonzero negated coefficients of the field
modulus.  A polynomial is a list of elements, constant term first; a
block of monic polynomials holds its n free coefficients, the leading 1
implicit.  engine builds the planes and counts delta for both plane forms.

* rabin -- the Frobenius ladder and divstep finish of engine's F_(2^k)
  form, with x^q by k cubings when q > 2n.
* trial -- f mod g is F_3-linear in f's digits: per g, one remainder of a
  block's varying digits, shared by every aligned block, and the fixed
  digits' remainder per block; g divides the rows where the two cancel.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from . import engine
from .finitefield import _prime_factors


def _fold(field) -> list[tuple[int, int]]:
    return [(i, -m % 3) for i, m in enumerate(field.modulus[: field.k]) if m]


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    t = (x[1] | y[0]) ^ (x[0] | y[1])
    return (x[1] | y[1]) ^ t, (x[0] | y[0]) ^ t


def _neg(e: list) -> list:
    return [(low, high) for high, low in e]


def _multiples(e: list, fold: list) -> list[list]:
    # y^a e for a < k, each the one before shifted up a digit with its top
    # digit folded
    ys = [e]
    while len(ys) < len(e):
        top = ys[-1][-1]
        ys.append([(0, 0)] + ys[-1][:-1])
        for i, c in fold:
            ys[-1][i] = _add(ys[-1][i], top if c == 1 else top[::-1])
    return ys


def _axpy(r: list, c: list, ys: list[list]) -> None:
    # r += c e in place, for elements r and c and ys = _multiples(e): each
    # digit product (ch yl | cl yh, ch yh | cl yl) added to r's digit
    for (ch, cl), y in zip(c, ys):
        if ch or cl:
            for b, (yh, yl) in enumerate(y):
                ph, pl = ch & yl | cl & yh, ch & yh | cl & yl
                rh, rl = r[b]
                t = (rl | ph) ^ (rh | pl)
                r[b] = (rl | pl) ^ t, (rh | ph) ^ t


def _reduce(prod: list, fs: list) -> list:
    # prod mod g, in place, for fs the multiples of the coefficients of a
    # monic g below its leading 1
    d = len(fs)
    for j in range(len(prod) - 1, d - 1, -1):
        top = _neg(prod[j])
        for i, ys in enumerate(fs):
            _axpy(prod[j - d + i], top, ys)
    return prod[:d]


def _mulmod(a: list, b: list, fs: list, fold: list) -> list:
    prod = [[(0, 0)] * len(a[0]) for _ in range(2 * len(a) - 1)]
    for j, bj in enumerate(b):
        ys = _multiples(bj, fold)
        for i, ai in enumerate(a):
            _axpy(prod[i + j], ai, ys)
    return _reduce(prod, fs)


def _frobenius_columns(field, x: list, fs: list, fold: list) -> list:
    # C_i = x^(iq) mod f for i < n: up to q = 2n C_(i-1) shifted up q degrees,
    # above C_(i-1) x^q, with x^q by k cubings u^3 = sum_i u_i^3 x^(3i), where
    # e^3 = sum_a e_a y^(3a) for the digits e_a of e
    n, k, q = len(x), len(x[0]), field.q
    cols = [[list(x[1])] + [[(0, 0)] * k for _ in range(n - 1)]]  # 1, as x's coefficient of x
    if q <= 2 * n:
        while len(cols) < n:
            cols.append(_reduce([[(0, 0)] * k for _ in range(q)] + [list(e) for e in cols[-1]], fs))
        return cols
    cubes = [field.element_vector(field._power(3, 3 * a)) for a in range(k)]  # y^(3a), y of code 3 as k > 1
    xq = x
    for _ in range(k):
        prod = [[(0, 0)] * k for _ in range(3 * n - 2)]
        for i, e in enumerate(xq):
            _axpy_scalar(prod[3 * i], e, cubes)
        xq = _reduce(prod, fs)
    cols.append(xq)
    while len(cols) < n:
        cols.append(_mulmod(cols[-1], xq, fs, fold))
    return cols


def _coprime(f: list, h: list, ones: int, fold: list) -> int:
    # engine._coprime over F_(3^k): G <- (F_0 G - G_0 F) / x
    n, k = len(f), len(f[0])
    F = [[(0, ones)] + [(0, 0)] * (k - 1)] + f[::-1]
    G = h[::-1] + [[(0, 0)] * k]
    delta = [ones] + [0] * (2 * n + 2).bit_length()
    for step in range(2 * n - 1):
        F, G = F[: 2 * n - 1 - step], G[: 2 * n - 1 - step]
        swap, delta = engine._divstep(delta, reduce(or_, (high | low for high, low in G[0])), ones)
        f0s, g0s = _multiples(F[0], fold), _multiples(_neg(G[0]), fold)
        H = []
        for fi, gi in zip(F[1:], G[1:]):
            H.append([(0, 0)] * k)
            _axpy(H[-1], gi, f0s)
            _axpy(H[-1], fi, g0s)
        F = [[(uh ^ (uh ^ vh) & swap, ul ^ (ul ^ vl) & swap) for (uh, ul), (vh, vl) in zip(fi, gi)]
             for fi, gi in zip(F, G)]
        G = H + [[(0, 0)] * k]
    return ones & ~reduce(or_, delta)


def _rabin_flags_block(field, n: int, lo: int, hi: int) -> int:
    # engine._rabin_flags_block over F_(3^k)
    k, q, ones, fold = field.k, field.q, (1 << (hi - lo)) - 1, _fold(field)
    planes, _ = engine._planes(n, k, lo, hi, 3)
    f = [planes[(n - 1 - j) * k : (n - j) * k] for j in range(n)]
    fs = [_multiples(c, fold) for c in f]
    x = [[(0, 0)] * k for _ in range(n)]
    x[1][0] = (0, ones)
    cols = [[_multiples(c, fold) for c in col] for col in _frobenius_columns(field, x, fs, fold)]
    placed = -(-n // q)
    checkpoints = {n // l for l in _prime_factors(n)}
    t, saved = x, []
    for j in range(1, n + 1):
        acc = [[(0, 0)] * k for _ in range(n)]
        for i in range(placed):
            acc[i * q] = list(t[i])
        for i in range(placed, n):  # _axpy inlined
            for a, (ch, cl) in enumerate(t[i]):
                if ch or cl:
                    for r, ys in zip(acc, cols[i]):
                        for b, (yh, yl) in enumerate(ys[a]):
                            ph, pl = ch & yl | cl & yh, ch & yh | cl & yl
                            rh, rl = r[b]
                            u = (rl | ph) ^ (rh | pl)
                            r[b] = (rl | pl) ^ u, (rh | ph) ^ u
        t = acc
        if j in checkpoints:
            saved.append(t)
    flags = ones & ~reduce(or_, ((uh ^ vh) | (ul ^ vl) for ti, xi in zip(t, x) for (uh, ul), (vh, vl) in zip(ti, xi)))
    diffs = [[list(c) for c in s] for s in saved]  # x^(q^(n/l)) - x
    for diff in diffs:
        diff[1][0] = _add(diff[1][0], (ones, 0))
    return flags & _coprime(f, reduce(lambda u, v: _mulmod(u, v, fs, fold), diffs), ones, fold)


def _trial_planes(field, n: int, cuts: list, step: int) -> list[int]:
    # f mod g is F_3-linear in f's digits.  Blocks are aligned, so the low s
    # digits (step = 3^s) take every value in every block, and their
    # remainder V is the same planes in each; the digits from s up and x^n
    # are fixed in a block, and their remainder R is one scalar a digit.
    # Both are reduced at once, V in the low step bits and R, as planes over
    # the cuts, above them.  g divides the rows where V = -R.
    k, q, fold, ones, every = field.k, field.q, _fold(field), (1 << step) - 1, (1 << len(cuts)) - 1
    vary, s = engine._planes(n, k, 0, step, 3)  # digits from s up are 0 in block 0

    def fixed(pos: int, v: int) -> int:  # the cuts whose digit pos is a fixed v
        return sum(1 << step + c for c, (a, _) in enumerate(cuts) if a // 3**pos % 3 == v) if pos >= s else 0

    f = [(high | fixed(pos, 2), low | fixed(pos, 1)) for pos, (high, low) in enumerate(vary)]
    f = [f[(n - 1 - j) * k : (n - j) * k] for j in range(n)] + [[(0, every << step)] + [(0, 0)] * (k - 1)]
    # _picked takes at most cost(j) ands on j digits, the cuts sharing at most
    # 3^i prefixes at digit i: the digits of R are split where the two halves
    # and one and a cut to join them cost least
    cost = lambda j: sum(min(3**i, len(cuts)) for i in range(1, j + 1))
    marked = [0] * len(cuts)
    for d in range(1, n // 2 + 1):
        split = min(range(d * k + 1), key=lambda j: cost(j) + cost(d * k - j) + (j < d * k) * len(cuts))
        for g in engine._irreducibles(field, d):
            # -(y^a g_i) for the coefficients g_i of g below its leading 1
            negs = [[field.element_vector(field.neg(field.mul(3**a, g // q ** (d - 1 - i) % q))) for a in range(k)]
                    for i in range(d)]
            rem = [digit for e in _reduce_scalar([list(e) for e in f], negs) for digit in e]
            rows = _picked(rem[:split], step, every, ones, len(cuts))
            if split < d * k:
                rows = map(and_, rows, _picked(rem[split:], step, every, ones, len(cuts)))
            for c, u in enumerate(rows):
                if u:
                    marked[c] |= u
    return [(ones ^ m) >> a % step & (1 << (b - a)) - 1 for (a, b), m in zip(cuts, marked)]


def _reduce_scalar(prod: list, negs: list) -> list:
    # prod mod g, in place, for a monic g of scalar coefficients, negs[i] the
    # digits of -(y^a g_i)
    d = len(negs)
    for j in range(len(prod) - 1, d - 1, -1):
        for r, ys in zip(prod[j - d : j], negs):
            _axpy_scalar(r, prod[j], ys)
    return prod[:d]


def _axpy_scalar(r: list, c: list, ys: list) -> None:
    # r += c e in place for a scalar element e, ys[a] the digits 0, 1 or 2
    # of y^a e: each adds a digit of c or its negative
    for (high, low), y in zip(c, ys):
        for b, v in enumerate(y):
            if v:
                r[b] = _add(r[b], (high, low) if v == 1 else (low, high))


def _picked(rem: list, step: int, every: int, ones: int, count: int) -> list[int]:
    # for each cut, the rows where V = -R on the digits rem of the remainder
    # (V in the low step bits, R above): each digit of -R picks V's plane h,
    # l or ~(h | l), and the cuts with the same digits of R so far share
    # their and, which stops at zero
    nodes = [(every, ones)]  # (cuts, rows)
    for high, low in rem:
        r2, r1 = high >> step, low >> step
        picks = ((every & ~(r2 | r1), ~(high | low)), (r2, low), (r1, high))
        nodes = [(cs, rows) for c, v in nodes for blocks, pick in picks if (cs := c & blocks) and (rows := v & pick)]
    out = [0] * count
    for cs, rows in nodes:
        while cs:
            out[(cs & -cs).bit_length() - 1] = rows
            cs &= cs - 1
    return out
