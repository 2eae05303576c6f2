"""The F_3 digit operations of the counting engine, and the trial over F_(3^k).

neckprod.engine, which runs every sweep, imports this module only for
p = 3, so no other sweep compiles it.  Bit-sliced F_3 arithmetic (Boothby
and Bradshaw 2009, "Bitslicing and the method of four Russians over larger
finite fields"): a digit is the pair of Python int planes (high, low),
bit r of each for row r of a block, with 0 = (0, 0), 1 = (0, 1),
2 = (1, 0), so negation swaps them.  _F3 is engine's plane form over
these digits; engine's one Rabin block function, its ladder, x^q columns
and divstep finish, runs on it as on F_2's.

* trial -- f mod g is F_3-linear in f's digits: per g, one remainder of a
  block's varying digits, shared by every aligned block, and the fixed
  digits' remainder per block; g divides the rows where the two cancel.
"""

from __future__ import annotations

from operator import and_

from . import engine


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    t = (x[1] | y[0]) ^ (x[0] | y[1])
    return (x[1] | y[1]) ^ t, (x[0] | y[0]) ^ t


def _select(swap: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return u[0] ^ (u[0] ^ v[0]) & swap, u[1] ^ (u[1] ^ v[1]) & swap


def _axpy(rs: list, c: list, yss: list) -> None:
    # engine's row axpy: each digit product (ch yl | cl yh, ch yh | cl yl)
    # added to a digit of rs[j]
    for a, (ch, cl) in enumerate(c):
        if ch or cl:
            for r, ys in zip(rs, yss):
                for b, (yh, yl) in enumerate(ys[a]):
                    ph, pl = ch & yl | cl & yh, ch & yh | cl & yl
                    rh, rl = r[b]
                    u = (rl | ph) ^ (rh | pl)
                    r[b] = (rl | pl) ^ u, (rh | ph) ^ u


_F3 = engine._Form((0, 0), lambda ones: (0, ones), _add, lambda d: (d[1], d[0]), lambda d: d[0] | d[1], _select,
                   _axpy, ())


def _trial_planes(field, n: int, cuts: list, step: int) -> list[int]:
    # f mod g is F_3-linear in f's digits.  Blocks are aligned, so the low s
    # digits (step = 3^s) take every value in every block, and their
    # remainder V is the same planes in each; the digits from s up and x^n
    # are fixed in a block, and their remainder R is one scalar a digit.
    # Both are reduced at once, V in the low step bits and R, as planes over
    # the cuts, above them.  g divides the rows where V = -R.
    k, q, ones, every = field.k, field.q, (1 << step) - 1, (1 << len(cuts)) - 1
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
            engine._axpy_scalar(r, prod[j], ys, _F3)
    return prod[:d]


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
