"""The counting engine: one sweep loop for every field, one plane Rabin test
and one plane trial.

finitefield's sweeps import it once check_sweep has accepted them.
_flags_range cuts every range of monic polynomials into aligned blocks
(_block_rows), answers n = 1, and calls one element form's Rabin or trial
block function, each giving one int a cut, bit r for the cut's row r.
p >= 5 runs on the numpy digits of neckprod.digits.  Characteristics 2 and
3 run on bit planes in Python integers (bit-slicing, Biham 1997), with no
numpy: a plane holds one bit of a base-p digit of a coefficient for every
row of a block, and since q = p^k those digits are the digits of the row
index.  A plane form (_Form) holds one characteristic's digit operations:
_F2, a digit one plane that adds by xor and multiplies by and, and _F3, a
digit two planes (Boothby and Bradshaw 2009).  Both block functions run on
either form:

* rabin -- the Frobenius ladder t -> t^q = sum_i t_i (x^(iq) mod f), with
  x^q by k p-th powers when q > 2n, then Bernstein-Yang divsteps on every
  row with a bit-sliced delta, once per block on the product of the gcd
  conditions.
* trial -- f mod g is F_p-linear in f's digits for each monic irreducible
  g of degree <= n/2, found by this test at degree deg g (_irreducibles):
  per g, one remainder of a block's varying digits, shared by every
  aligned block, and the fixed digits' remainder per block; g divides the
  rows where the two cancel.

Both tests divide with one _reduce, and every F_p constant comes from the
fold of the field modulus.  The engine and digits import nothing from
finitefield, whose scalar is_irreducible_* tests hold each path row for row.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import and_, or_, pos, xor

_BLOCK = 1 << 16


def _block_rows(field, n: int, method: str) -> int:
    # rows of one engine block at degree n >= 2; every block starts at a
    # multiple of its size.  Planes, p = 2 or 3: the largest p^s <= _BLOCK,
    # s <= n k (2^16 or 3^10 rows).  p >= 5: trial takes q^s <= _BLOCK,
    # s <= n, and Rabin, whose column multiples hold n^2 k^2 digits a row,
    # _BLOCK // (n k)
    if field.p <= 3:
        return max(field.p**s for s in range(n * field.k + 1) if field.p**s <= _BLOCK)
    if method == "trial":
        return max(field.q**s for s in range(n + 1) if field.q**s <= _BLOCK)
    return _BLOCK // (n * field.k)


def _flags_range(field, n: int, lo: int, hi: int, method: str) -> tuple[list, list[int]]:
    # the cuts of rows lo..hi - 1, one for each aligned block they meet, and
    # the verdicts of each cut (a, b) as one int, bit r for row a + r
    if n == 1:
        return [(lo, hi)], [(1 << (hi - lo)) - 1]  # every monic linear polynomial
    step = _block_rows(field, n, method)
    cuts = [(max(lo, base), min(hi, base + step)) for base in range(lo - lo % step, hi, step)]
    rabin, trial = _rabin_flags_block, _trial_planes
    if field.p > 3:
        from . import digits

        rabin, trial = digits._rabin_flags_block, digits._trial_sieve
    if method == "trial":
        return cuts, trial(field, n, cuts, step)
    return cuts, [rabin(field, n, a, b) for a, b in cuts]


def _count_range(args) -> int:
    return sum(mask.bit_count() for mask in _flags_range(*args)[1])


def _checkpoints(n: int) -> set[int]:
    # the steps n / l of Rabin's gcd conditions, for the primes l dividing
    # n <= 63, found by trial division
    return {n // l for l in range(2, n + 1) if n % l == 0 and all(l % d for d in range(2, l))}


def _irreducibles(field, d: int) -> list[int]:
    # the rows of the monic irreducibles of degree d, by trial at degree d:
    # the factors g of both trial forms, never found by Rabin
    cuts, masks = _flags_range(field, d, 0, field.q**d, "trial")
    return [a + r for (a, _), mask in zip(cuts, masks) for r, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


# A plane form is a record of digit operations on planes: an F_2 digit is one
# plane, and an F_3 digit the pair (high, low), the rows where it is 2 and 1.
# An element of F_(p^k) is a list of k digits, and fold lists (i, c) for
# y^k = sum c y^i, c = -m_i mod p for the nonzero coefficients m_i of the
# field modulus, y the generator of F_q over F_p.  A polynomial is a list of
# elements, constant term first; a block of monic polynomials holds its n
# free coefficients, the leading 1 implicit.  A form's digit operations:
# zero; one(rows), 1 on those rows and 0 elsewhere; add and neg; values, the
# rows where a digit is 1, .., p - 1; select(swap, u, v), v on the rows of
# swap and u elsewhere.  axpy(rs, c, yss) adds c e_j to each element rs[j],
# for yss[j] = _multiples(e_j), taking each digit of c once across the row;
# one element is a row of one.
_Form = namedtuple("_Form", "zero one add neg values select axpy fold")


def _axpy(rs: list, c: list[int], yss: list) -> None:
    for a, ca in enumerate(c):
        if ca:
            for r, ys in zip(rs, yss):
                for b, y in enumerate(ys[a]):
                    r[b] ^= ca & y


# F_2: a digit adds by xor, multiplies by and, and is its own negative
_F2 = _Form(0, pos, xor, pos, lambda d: (d,), lambda swap, u, v: u ^ (u ^ v) & swap, _axpy, ())


# F_3: 0 = (0, 0), 1 = (0, 1), 2 = (1, 0), so negation swaps the planes, as
# values does
def _add3(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    t = (x[1] | y[0]) ^ (x[0] | y[1])
    return (x[1] | y[1]) ^ t, (x[0] | y[0]) ^ t


def _select3(swap: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return u[0] ^ (u[0] ^ v[0]) & swap, u[1] ^ (u[1] ^ v[1]) & swap


def _axpy3(rs: list, c: list, yss: list) -> None:
    # each digit product (ch yl | cl yh, ch yh | cl yl) added to a digit of rs[j]
    for a, (ch, cl) in enumerate(c):
        if ch or cl:
            for r, ys in zip(rs, yss):
                for b, (yh, yl) in enumerate(ys[a]):
                    ph, pl = ch & yl | cl & yh, ch & yh | cl & yl
                    rh, rl = r[b]
                    u = (rl | ph) ^ (rh | pl)
                    r[b] = (rl | pl) ^ u, (rh | ph) ^ u


_F3 = _Form((0, 0), lambda ones: (0, ones), _add3, lambda d: (d[1], d[0]), lambda d: (d[1], d[0]), _select3, _axpy3,
            ())


def _form(field) -> _Form:
    # the plane form of F_(2^k) or F_(3^k), with the fold of its modulus
    form = _F2 if field.p == 2 else _F3
    return form._replace(fold=[(i, -m % field.p) for i, m in enumerate(field.modulus[: field.k]) if m])


def _planes(n: int, k: int, a: int, b: int, p: int) -> tuple[list, int]:
    # the planes of rows a..b - 1 by the position of their digit in the row
    # index in base p (digit i of the coefficient of x^j at (n - 1 - j) k + i),
    # and t: the rows share their digits from t up, and below t a plane is
    # periodic.  Over F_3 a position has the pair (high, low), the rows where
    # its digit is 2 and 1.
    ones, t = (1 << (b - a)) - 1, 0
    while a // p**t != (b - 1) // p**t:
        t += 1
    planes = []
    for pos in range(n * k):
        size, pair = p**pos, []
        for v in range(p - 1, 0, -1):
            if pos >= t:
                pair.append(ones if a // size % p == v else 0)
                continue
            m, span = ((1 << size) - 1) << v * size, p * size  # digit pos = v for r < p^t, from a mod p^t
            while span < p**t:
                m, span = reduce(or_, (m << i * span for i in range(p))), p * span
            pair.append(m >> a % p**t & ones)
        planes.append(pair[0] if p == 2 else tuple(pair))
    return planes, t


def _multiples(e: list, form: _Form, count: int = 0) -> list[list]:
    # y^a e for a < count, k by default, each the one before shifted up a
    # digit with its top digit folded
    ys, count = [e], count or len(e)
    while len(ys) < count:
        top = ys[-1][-1]
        ys.append([form.zero] + ys[-1][:-1])
        for i, c in form.fold:
            ys[-1][i] = form.add(ys[-1][i], top if c == 1 else form.neg(top))
    return ys


def _scalar(form: _Form, p: int) -> tuple[_Form, _Form]:
    # form with the axpy of scalar elements e_j, yss[j][a] the F_p digits of
    # y^a e_j, each adding a digit of c or its negative; and the F_p digits as
    # a form, whose _multiples of a scalar give those yss[j]
    zero, add, neg = form.zero, form.add, form.neg

    def axpy(rs: list, c: list, yss: list) -> None:
        for r, ys in zip(rs, yss):
            for ca, y in zip(c, ys):
                if ca != zero:
                    for b, v in enumerate(y):
                        if v:
                            r[b] = add(r[b], ca if v == 1 else neg(ca))

    return form._replace(axpy=axpy), form._replace(zero=0, add=lambda u, v: (u + v) % p, neg=lambda u: -u % p)


def _reduce(prod: list, fs: list, form: _Form) -> list:
    # prod mod g, in place, for fs the multiples of the coefficients of a
    # monic g below its leading 1
    d = len(fs)
    for j in range(len(prod) - 1, d - 1, -1):
        form.axpy(prod[j - d : j], list(map(form.neg, prod[j])), fs)
    return prod[:d]


def _mulmod(a: list, b: list, fs: list, form: _Form) -> list:
    prod = [[form.zero] * len(a[0]) for _ in range(2 * len(a) - 1)]
    ams = [_multiples(e, form) for e in a]
    for j, bj in enumerate(b):
        form.axpy(prod[j : j + len(a)], bj, ams)
    return _reduce(prod, fs, form)


def _frobenius_columns(field, x: list, fs: list, form: _Form) -> list:
    # C_i = x^(iq) mod f for i < n: up to q = 2n C_(i-1) shifted up q degrees,
    # above C_(i-1) x^q, with x^q by k p-th powers u^p = sum_i u_i^p x^(pi),
    # where e^p = sum_a e_a y^(pa) for the digits e_a of e
    n, k, p, q, zero = len(x), field.k, field.p, field.q, form.zero
    cols = [[list(x[1])] + [[zero] * k for _ in range(n - 1)]]  # 1, as x's coefficient of x
    if q <= 2 * n:
        while len(cols) < n:
            cols.append(_reduce([[zero] * k for _ in range(q)] + [list(e) for e in cols[-1]], fs, form))
        return cols
    scalar, fp = _scalar(form, p)
    powers = [_multiples([1] + [0] * (k - 1), fp, p * (k - 1) + 1)[::p]]  # y^(pa) for a < k
    xq = x
    for _ in range(k):
        prod = [[zero] * k for _ in range(p * (n - 1) + 1)]
        for i, e in enumerate(xq):
            scalar.axpy([prod[p * i]], e, powers)
        xq = _reduce(prod, fs, form)
    cols.append(xq)
    while len(cols) < n:
        cols.append(_mulmod(cols[-1], xq, fs, form))
    return cols


def _coprime(f: list, h: list, ones: int, form: _Form) -> int:
    """Rowwise verdict gcd(f, h) = 1, as planes of width ones, for f monic of
    degree n given by its n free coefficients and h of lower degree: the
    divsteps of digits._coprime (Bernstein and Yang 2019) on F = x^n f(1/x)
    and G = x^(n-1) h(1/x), G <- (F_0 G - G_0 F) / x, with delta a
    two's-complement counter bit-sliced over the rows; the gcd is 1 where it
    ends at 0."""
    n, k, zero = len(f), len(f[0]), form.zero
    F = [[form.one(ones)] + [zero] * (k - 1)] + f[::-1]
    G = h[::-1] + [[zero] * k]
    delta = [ones] + [0] * (2 * n + 2).bit_length()  # 1, with room for |delta| <= 2n
    for step in range(2 * n - 1):
        F, G = F[: 2 * n - 1 - step], G[: 2 * n - 1 - step]
        swap, delta = _divstep(delta, reduce(or_, (v for u in G[0] for v in form.values(u))), ones)
        f0s, g0s = [_multiples(F[0], form)], [_multiples([form.neg(u) for u in G[0]], form)]
        H = [[zero] * k for _ in F[1:]]
        for hi, fi, gi in zip(H, F[1:], G[1:]):
            form.axpy([hi], gi, f0s)
            form.axpy([hi], fi, g0s)
        F = [[form.select(swap, u, v) for u, v in zip(fi, gi)] for fi, gi in zip(F, G)]
        G = H + [[zero] * k]
    return ones & ~reduce(or_, delta)


def _divstep(delta: list[int], g0: int, ones: int) -> tuple[int, list[int]]:
    # one divstep on the bit-sliced two's-complement delta of both plane
    # forms: swap where G_0 != 0 (g0) and delta > 0, and delta <- (delta xor
    # swap) + 1 + swap, -delta + 1 where swapped, else delta + 1
    swap = g0 & reduce(or_, delta) & ~delta[-1]
    d = [plane ^ swap for plane in delta]
    carry = d[0] & ~swap | swap
    delta = [d[0] ^ ones ^ swap]
    for plane in d[1:]:
        delta.append(plane ^ carry)
        carry &= plane
    return swap, delta


def _rabin_flags_block(field, n: int, lo: int, hi: int) -> int:
    form, k, q, ones = _form(field), field.k, field.q, (1 << (hi - lo)) - 1
    planes, _ = _planes(n, k, lo, hi, field.p)
    f = [planes[(n - 1 - j) * k : (n - j) * k] for j in range(n)]
    fs = [_multiples(c, form) for c in f]
    x = [[form.zero] * k for _ in range(n)]
    x[1][0] = form.one(ones)
    # t -> t^q is F_q-linear: t^q = sum_i t_i C_i
    cols = [[_multiples(c, form) for c in col] for col in _frobenius_columns(field, x, fs, form)]
    placed = -(-n // q)  # C_i = x^(iq) is a single 1 for iq < n: t_i is placed
    checkpoints = _checkpoints(n)
    t, saved = x, []
    for j in range(1, n + 1):
        acc = [[form.zero] * k for _ in range(n)]
        for i in range(placed):
            acc[i * q] = list(t[i])
        for i in range(placed, n):
            form.axpy(acc, t[i], cols[i])
        t = acc
        if j in checkpoints:
            saved.append(t)

    def minus_x(u: list) -> list:
        u = [list(e) for e in u]
        u[1][0] = form.add(u[1][0], form.neg(x[1][0]))
        return u

    flags = ones & ~reduce(or_, (v for e in minus_x(t) for u in e for v in form.values(u)))
    # survivors have all factor degrees dividing n; finish every row with the
    # gcd conditions on the saved powers, gcd(f, prod_l (x^(q^(n/l)) - x)) = 1
    # holding iff each factor's does (Gao and Panario 1997)
    diffs = [minus_x(s) for s in saved]
    return flags & _coprime(f, reduce(lambda u, v: _mulmod(u, v, fs, form), diffs), ones, form)


def _trial_planes(field, n: int, cuts: list, step: int) -> list[int]:
    # f mod g is F_p-linear in f's digits.  Blocks are aligned, so the low s
    # digits (step = p^s) take every value in every block, and their
    # remainder V is the same planes in each; the digits from s up and x^n
    # are fixed in a block, and their remainder R is one scalar a digit.
    # Both are reduced at once, V in the low step bits and R, as planes over
    # the cuts, above them.  g divides the rows where V = -R.
    form, p, k = _form(field), field.p, field.k
    ones, every = (1 << step) - 1, (1 << len(cuts)) - 1
    f, s = _planes(n, k, 0, step, p)  # digits from s up are 0 in block 0
    for pos in range(s, n * k):
        for v in range(1, p):  # the cuts whose digit pos is a fixed v
            fixed = form.one(sum(1 << step + c for c, (a, _) in enumerate(cuts) if a // p**pos % p == v))
            f[pos] = form.add(f[pos], fixed if v == 1 else form.neg(fixed))
    f = [f[(n - 1 - j) * k : (n - j) * k] for j in range(n)] + [[form.one(every << step)] + [form.zero] * (k - 1)]
    # _picked takes at most cost(j) ands on j digits, the cuts sharing at most
    # p^i prefixes at digit i: the digits of R are split where the two halves
    # and one and a cut to join them cost least
    cost = lambda j: sum(min(p**i, len(cuts)) for i in range(1, j + 1))
    scalar, fp = _scalar(form, p)
    marked = [ones ^ (((1 << b - a) - 1) << a % step) for a, b in cuts]  # rows with a factor; those outside the cut start marked
    for d in range(1, n // 2 + 1):
        split = min(range(d * k + 1), key=lambda j: cost(j) + cost(d * k - j) + (j < d * k) * len(cuts))
        for g in _irreducibles(field, d):
            # y^a g_i for the coefficients g_i of g below its leading 1, digit
            # a of g_i being digit (d - 1 - i) k + a of the row index
            gs = [_multiples([g // p ** ((d - 1 - i) * k + a) % p for a in range(k)], fp) for i in range(d)]
            rem = [digit for e in _reduce([list(e) for e in f], gs, scalar) for digit in e]
            rows = _picked(rem[:split], step, every, ones, len(cuts), form)
            if split < d * k:
                rows = map(and_, rows, _picked(rem[split:], step, every, ones, len(cuts), form))
            for c, u in enumerate(rows):
                if u:
                    marked[c] |= u
        if all(m == ones for m in marked):
            break  # every row has a factor of degree <= d
    return [(ones ^ m) >> a % step for (a, _), m in zip(cuts, marked)]


def _picked(rem: list, step: int, every: int, ones: int, count: int, form: _Form) -> list[int]:
    # for each cut, the rows where V = -R on the digits rem of the remainder
    # (V in the low step bits, R above): on the cuts where a digit of R is v
    # it picks V's plane of rows where that digit is -v, and the cuts with
    # the same digits of R so far share their and, which stops at zero
    full, nodes = every << step | ones, [(every, ones)]  # (cuts, rows)
    for digit in rem:
        values = form.values(digit)
        values = (full ^ reduce(or_, values),) + values  # the rows where the digit is 0, 1, .., p - 1
        picks = [(values[v] >> step, values[-v]) for v in range(len(values))]
        nodes = [(cs, rows) for c, u in nodes for blocks, pick in picks if (cs := c & blocks) and (rows := u & pick)]
    out = [0] * count
    for cs, rows in nodes:
        while cs:
            out[(cs & -cs).bit_length() - 1] = rows
            cs &= cs - 1
    return out
