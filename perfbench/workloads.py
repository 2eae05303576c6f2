"""Seeded call lists for the three workloads, with the expected answer of
every call.

Expected answers come from this file's own arithmetic, never from the
package under test: Mobius values by trial factorisation, necklace counts by
inclusion-exclusion over the squarefree divisors, and raw product expansions
by plain generalised-binomial multiplication.

The seed picks the order of the calls and the cheap parameters (Mobius
arguments, necklace bases, expansion exponents, numeric points, budgets).
Parameters that set the cost of a call (degrees, field sizes) are fixed, so
that every seed does about the same amount of work and runs of different
seeds can be compared.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("count-prime", "count-ext", "identity")

# the trivial call whose median time is reported as cold start.  Call times
# on a small shared machine drift by 10-20% within tens of seconds, so each
# pass spreads this many of them through its run.  On identity they are part
# of the workload's mix; on count-* they are probes, left out of the
# call-time percentiles so that those describe the engine calls.
TRIVIAL = ("necklace", "--a", "2", "--n", "4")
TRIVIAL_PER_PASS = 16

# calls that the program must refuse with exit 2 and no stdout.  Each one
# ran past 20 s instead of being refused when this benchmark was added.
REFUSE_COUNT_PRIME = [
    ("field", "count", "--p", "2", "--k", "1", "--n", "70", "--budget", str(10**23)),
]
REFUSE_COUNT_EXT = [
    ("field", "count", "--p", "2", "--k", "40", "--n", "1"),
    ("field", "count", "--p", str(2**61 - 1), "--k", "1", "--n", "1"),
    ("verify", "bridge", "--p", "2", "--k", "30", "--n-max", "1"),
]
REFUSE_IDENTITY = [
    ("mobius", "--n", str(10**18 + 3)),
]

# text output of `necklace table` is checked on this many rows
TABLE_SAMPLE_ROWS = 32


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv after `neckprod`, what kind of work it is,
    how much work it asks for, and the check of its result.

    kind is "count" (work = q^n polynomials scanned), "series" (work = D,
    the degree bound of an expansion or verification), "trivial" (cold
    start), "probe" (the trivial call, timed for cold start only),
    "refuse" (must exit 2 with empty stdout) or "other".
    check(returncode, stdout_path) returns None when the result is right
    and a one-line reason otherwise.
    """

    argv: tuple[str, ...]
    kind: str
    work: int
    check: Callable[[int, Path], str | None]


# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    f = prime_factors(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def necklace(a: int, n: int) -> int:
    """N(a, n) as (1/n) sum over subsets S of the primes of n of
    (-1)^|S| a^(n / prod S)."""
    primes = list(prime_factors(n))
    total = 0
    for mask in range(1 << len(primes)):
        d = n
        sign = 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d //= p
                sign = -sign
        total += sign * a**d
    count, rem = divmod(total, n)
    if rem:
        raise AssertionError(f"necklace sum for a={a}, n={n} not divisible by n")
    return count


def expand_product(exponents: list[int]) -> list[int]:
    """Coefficients of prod_n (1 - z^n)^e(n) mod z^(D+1), D = len(exponents),
    by multiplying in each factor's generalised binomial series."""
    D = len(exponents)
    coeffs = [1] + [0] * D
    for n, e in enumerate(exponents, start=1):
        if e == 0:
            continue
        factor = [0] * (D + 1)
        binom = 1
        for j in range(D // n + 1):
            factor[n * j] = binom if j % 2 == 0 else -binom
            binom = binom * (e - j) // (j + 1)
        coeffs = [
            sum(coeffs[i] * factor[m - i] for i in range(m + 1) if factor[m - i])
            for m in range(D + 1)
        ]
    return coeffs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _exit_zero(rc: int) -> str | None:
    return None if rc == 0 else f"exit {rc}, expected 0"


def expect_stdout(text: str) -> Callable[[int, Path], str | None]:
    def check(rc: int, stdout: Path) -> str | None:
        if rc != 0:
            return _exit_zero(rc)
        got = stdout.read_text().strip()
        if got != text:
            return f"stdout {got[:60]!r}, expected {text[:60]!r}"
        return None

    return check


def expect_refusal(rc: int, stdout: Path) -> str | None:
    if rc != 2:
        return f"exit {rc}, expected 2"
    if stdout.stat().st_size:
        return f"stdout {stdout.read_text()[:60]!r}, expected none"
    return None


def _report(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        name, _, value = line.strip().partition(" ")
        fields[name] = value.strip()
    return fields


def expect_report(**want: str) -> Callable[[int, Path], str | None]:
    """Text report of `verify symbolic|numeric`: exit 0 and the named fields
    (always including pass=true) exactly as given."""
    want = {"pass": "true", **want}

    def check(rc: int, stdout: Path) -> str | None:
        if rc != 0:
            return _exit_zero(rc)
        got = _report(stdout.read_text())
        if "first_failure" in got:
            return f"first_failure {got['first_failure']!r}"
        for name, value in want.items():
            if got.get(name) != value:
                return f"{name} {got.get(name)!r}, expected {value!r}"
        return None

    return check


def expect_bridge(q: int, n_max: int) -> Callable[[int, Path], str | None]:
    def check(rc: int, stdout: Path) -> str | None:
        if rc != 0:
            return _exit_zero(rc)
        lines = stdout.read_text().strip().splitlines()
        rows = [line.split() for line in lines[1:-1]]
        if lines[-1:] != ["pass: true"] or len(rows) != n_max:
            return f"bridge output of {len(lines)} lines does not end in {n_max} rows and a pass"
        for n, row in enumerate(rows, start=1):
            want = [str(n), str(necklace(q, n)), str(necklace(q, n)), "true"]
            if row != want:
                return f"bridge row {row}, expected {want}"
        return None

    return check


def expect_table(a: int, degree: int, rng: random.Random) -> Callable[[int, Path], str | None]:
    sample = {1, degree, *rng.sample(range(2, degree), TABLE_SAMPLE_ROWS - 2)}
    want = {n: f"{n}\t{necklace(a, n)}\n" for n in sample}

    def check(rc: int, stdout: Path) -> str | None:
        if rc != 0:
            return _exit_zero(rc)
        rows = 0
        # line by line: the table is tens of megabytes
        with open(stdout) as fh:
            for rows, line in enumerate(fh, start=1):
                if not line.startswith(f"{rows}\t") or want.get(rows, line) != line:
                    return f"table row {rows} is {line[:60]!r}"
        if rows != degree:
            return f"{rows} table rows, expected {degree}"
        return None

    return check


# ---------------------------------------------------------------------------
# the calls of each workload
# ---------------------------------------------------------------------------


def trivial_call(kind: str = "trivial") -> Call:
    return Call(TRIVIAL, kind, 0, expect_stdout("3"))


def count_call(p: int, k: int, n: int, test: str, rng: random.Random, workers: int = 1) -> Call:
    q = p**k
    # any budget of at least q^n asks for the same work
    budget = rng.randrange(q**n, 2**24 + 1)
    argv = ("field", "count", "--p", str(p), "--k", str(k), "--n", str(n), "--test", test,
            "--budget", str(budget))
    if workers > 1:
        argv += ("--workers", str(workers))
    return Call(argv, "count", q**n, expect_stdout(str(necklace(q, n))))


def bridge_call(p: int, n_max: int) -> Call:
    argv = ("verify", "bridge", "--p", str(p), "--k", "1", "--n-max", str(n_max))
    return Call(argv, "count", sum(p**n for n in range(1, n_max + 1)), expect_bridge(p, n_max))


def refuse_call(argv: tuple[str, ...]) -> Call:
    return Call(argv, "refuse", 0, expect_refusal)


def _count_prime(rng: random.Random) -> list[Call]:
    calls = [
        count_call(p, 1, n, test, rng)
        for p, n in ((2, 12), (2, 14), (2, 16), (3, 10))
        for test in ("rabin", "trial")
    ]
    calls.append(count_call(2, 1, 16, "rabin", rng, workers=2))
    calls.append(bridge_call(2, 14))
    calls += [refuse_call(argv) for argv in REFUSE_COUNT_PRIME]
    calls += [trivial_call("probe") for _ in range(TRIVIAL_PER_PASS)]
    return calls


def _count_ext(rng: random.Random) -> list[Call]:
    calls = [
        count_call(2, k, n, test, rng)
        for k, n in ((2, 8), (4, 4), (8, 2))
        for test in ("rabin", "trial")
    ]
    # q = 289 is above the engine's lookup-table limit: the scalar path
    calls.append(count_call(17, 2, 2, "rabin", rng, workers=2))
    calls += [refuse_call(argv) for argv in REFUSE_COUNT_EXT]
    calls += [trivial_call("probe") for _ in range(TRIVIAL_PER_PASS)]
    return calls


# Values that may start with "-" are passed as "--opt=value": argparse takes
# a separate "-0.1,0.2" for an option and exits 2.


def _numeric_point(a: int, rng: random.Random) -> str:
    radius = rng.uniform(0.3, 0.85) / a
    z = cmath.rect(radius, rng.uniform(0.0, 2.0 * math.pi))
    return f"{z.real:.6f},{z.imag:.6f}"


def _expand_call(a: int, degree: int, method: str) -> Call:
    argv = ("expand", "--a", str(a), "--degree", str(degree), "--method", method)
    want = " ".join(["1", str(-a)] + ["0"] * (degree - 1))
    return Call(argv, "series", degree, expect_stdout(want))


def _raw_call(exponents: list[int], method: str) -> Call:
    argv = ("expand", "raw", f"--exponents={','.join(map(str, exponents))}", "--method", method)
    want = " ".join(map(str, expand_product(exponents)))
    return Call(argv, "series", len(exponents), expect_stdout(want))


def _identity(rng: random.Random) -> list[Call]:
    calls = [trivial_call() for _ in range(TRIVIAL_PER_PASS)]
    for _ in range(5):
        n = rng.randrange(10**8, 10**9)
        calls.append(Call(("mobius", "--n", str(n)), "other", 0, expect_stdout(str(mobius(n)))))
    for _ in range(5):
        a, n = rng.randrange(2, 10), rng.randrange(500, 2001)
        argv = ("necklace", "--a", str(a), "--n", str(n))
        calls.append(Call(argv, "other", 0, expect_stdout(str(necklace(a, n)))))
    # N(2, 12000) has about 3,600 digits, under Python's default 4,300-digit
    # limit on int-to-str conversion, which the CLI does not lift
    calls.append(Call(("necklace", "table", "--a", "2", "--degree", "12000"), "other", 0,
                      expect_table(2, 12000, rng)))
    calls += [_expand_call(a, 2000, "recursive") for a in (2, 3, 5)]
    calls += [_expand_call(a, 300, "direct") for a in (2, 3)]
    for method in ("recursive", "direct"):
        calls.append(_raw_call([rng.randrange(-3, 10) for _ in range(60)], method))
    calls.append(Call(("verify", "symbolic", "--a", "2", "--degree", "4000"), "series", 4000,
                      expect_report(base="2", degree_bound="4000", cross_checked="false")))
    calls.append(Call(("verify", "symbolic", "--a", "3", "--degree", "400", "--cross-check"),
                      "series", 400,
                      expect_report(base="3", degree_bound="400", cross_checked="true")))
    for a, degree in ((2, 5000), (2, 1000), (3, 1000), (4, 1000)):
        argv = ("verify", "numeric", "--a", str(a), f"--z={_numeric_point(a, rng)}",
                "--degree", str(degree))
        calls.append(Call(argv, "series", degree,
                          expect_report(base=str(a), degree_bound=str(degree))))
    calls += [refuse_call(argv) for argv in REFUSE_IDENTITY]
    return calls


def build(name: str, seed: int) -> list[Call]:
    """The workload's calls for this seed, in the order they run."""
    rng = random.Random(f"{name}:{seed}")
    calls = {"count-prime": _count_prime, "count-ext": _count_ext, "identity": _identity}[name](rng)
    rng.shuffle(calls)
    return calls
