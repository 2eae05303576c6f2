"""Command-line surface for the necklace / product / field toolkit.

Every subcommand supports --json (machine-readable output with a "schema"
field; exact integers rendered as decimal strings) and --quiet (no stdout,
the exit status carries the verdict).  Exit codes: 0 on success or a
passing verification, 1 on a verification failure, 2 on usage errors,
including infeasible requests such as exceeded enumeration budgets.
"""

from __future__ import annotations

import argparse
import os
import sys

# each handler imports the modules it calls: mobius and necklace load exact alone


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")
    common.add_argument("--quiet", action="store_true", help="suppress stdout; use the exit status")

    parser = argparse.ArgumentParser(
        prog="neckprod",
        description="Necklace counts, truncated product expansion, finite-field "
        "irreducible counting, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mobius = sub.add_parser("mobius", parents=[common], help="Mobius function mu(n)")
    p_mobius.add_argument("--n", type=int, required=True)

    p_necklace = sub.add_parser(
        "necklace", parents=[common], help="necklace count N(a, n) or a full table"
    )
    p_necklace.add_argument("--a", type=int)
    p_necklace.add_argument("--n", type=int)
    necklace_sub = p_necklace.add_subparsers(dest="necklace_sub")
    p_table = necklace_sub.add_parser("table", parents=[common], help="N(a, 1..D)")
    p_table.add_argument("--a", type=int, required=True)
    p_table.add_argument("--degree", type=int, required=True)

    p_expand = sub.add_parser(
        "expand", parents=[common], help="expand prod (1 - z^n)^e(n) mod z^(D+1)"
    )
    p_expand.add_argument("--a", type=int)
    p_expand.add_argument("--degree", type=int)
    p_expand.add_argument("--method", choices=["recursive", "direct"], default="recursive")
    expand_sub = p_expand.add_subparsers(dest="expand_sub")
    p_raw = expand_sub.add_parser(
        "raw", parents=[common], help="expansion for explicit exponents e(1),..,e(D)"
    )
    p_raw.add_argument("--exponents", type=str, required=True, help="comma-separated integers")
    p_raw.add_argument("--method", choices=["recursive", "direct"], default="recursive")

    p_field = sub.add_parser("field", parents=[common], help="finite-field operations")
    field_sub = p_field.add_subparsers(dest="field_sub", required=True)
    p_count = field_sub.add_parser(
        "count", parents=[common], help="count monic irreducibles of degree n over F_{p^k}"
    )
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    _add_sweep_options(p_count)

    p_verify = sub.add_parser("verify", parents=[common], help="identity verification")
    verify_sub = p_verify.add_subparsers(dest="verify_sub", required=True)

    p_sym = verify_sub.add_parser(
        "symbolic", parents=[common], help="exact coefficient identity check"
    )
    p_sym.add_argument("--a", type=int, required=True)
    p_sym.add_argument("--degree", type=int, required=True)
    p_sym.add_argument("--cross-check", action="store_true", dest="cross_check")

    p_num = verify_sub.add_parser(
        "numeric", parents=[common], help="numeric evaluation with tail bound"
    )
    p_num.add_argument("--a", type=int, required=True)
    p_num.add_argument("--z", type=str, required=True, help="complex point as RE,IM")
    p_num.add_argument("--degree", type=int, required=True)

    p_bridge = verify_sub.add_parser(
        "bridge", parents=[common], help="brute-force counts vs necklace formula"
    )
    p_bridge.add_argument("--p", type=int, required=True)
    p_bridge.add_argument("--k", type=int, required=True)
    p_bridge.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_sweep_options(p_bridge)

    return parser


def _add_sweep_options(parser: argparse.ArgumentParser):
    parser.add_argument("--test", choices=["trial", "rabin"], default="rabin")
    parser.add_argument("--budget", type=int)  # None: finitefield.DEFAULT_BUDGET
    parser.add_argument("--workers", type=int, default=1)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected complex point as RE,IM, got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--exponents must be comma-separated integers, got {text!r}")
    if not values:
        raise ValueError("--exponents needs at least one value")
    return values


class _Output:
    def __init__(self, json_mode: bool, quiet: bool):
        self.json_mode = json_mode
        self.quiet = quiet

    def emit(self, obj: dict, text_lines: list[str]):
        if self.quiet:
            return
        if self.json_mode:
            import json
            print(json.dumps(obj))
        else:
            for line in text_lines:
                print(line)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def _cmd_mobius(args, out: _Output) -> int:
    from . import exact
    value = exact.mobius(args.n)
    out.emit({"schema": "mobius", "n": args.n, "value": str(value)}, [str(value)])
    return 0


def _cmd_necklace(args, out: _Output) -> int:
    from . import exact
    if getattr(args, "necklace_sub", None) == "table":
        table = exact.build_necklace_table(args.a, args.degree)
        lines = [f"{n}\t{table.value(n)}" for n in range(1, args.degree + 1)]
        out.emit(
            {
                "schema": "necklace.table",
                "a": args.a,
                "degree_bound": args.degree,
                "values": [str(v) for v in table.values],
            },
            lines,
        )
        return 0
    _require(args.a is not None and args.n is not None, "necklace requires --a and --n")
    value = exact.necklace_count(args.a, args.n)
    out.emit(
        {"schema": "necklace.count", "a": args.a, "n": args.n, "value": str(value)},
        [str(value)],
    )
    return 0


def _cmd_expand(args, out: _Output) -> int:
    from . import series
    if getattr(args, "expand_sub", None) == "raw":
        exponents = _parse_exponents(args.exponents)
        spec = series.ExponentSpec(exponents=exponents)
        head = {"exponents": [str(e) for e in exponents]}
    else:
        _require(args.a is not None and args.degree is not None, "expand requires --a and --degree")
        from . import verify
        if args.method == "direct":
            verify._check_direct(args.a, args.degree)
        spec = verify.necklace_exponent_spec(args.a, args.degree)
        head = {"a": args.a}
    expand = series.expand_direct if args.method == "direct" else series.expand_recursive
    result = expand(spec)
    out.emit(
        {
            "schema": "series.expand",
            **head,
            "degree_bound": spec.degree_bound,
            "method": args.method,
            "coefficients": result.to_json(),
        },
        [" ".join(str(c) for c in result.coeffs)],
    )
    return 0


def _cmd_field(args, out: _Output) -> int:
    from . import finitefield
    _require(args.workers >= 1, "--workers must be >= 1")
    budget = finitefield.DEFAULT_BUDGET if args.budget is None else args.budget
    finitefield.check_sweep(args.p, args.k, args.n, args.test, budget)
    fieldctx = finitefield.build_field(args.p, args.k)
    count = finitefield.count_irreducibles(
        fieldctx, args.n, method=args.test, budget=budget, workers=args.workers
    )
    out.emit(
        {
            "schema": "field.count",
            "p": args.p,
            "k": args.k,
            "q": fieldctx.q,
            "n": args.n,
            "method": args.test,
            "count": str(count),
        },
        [str(count)],
    )
    return 0


def _report_lines(pairs: list[tuple[str, str]]) -> list[str]:
    width = max(len(name) for name, _ in pairs)
    return [f"{name.ljust(width)}  {value}" for name, value in pairs]


def _cmd_verify(args, out: _Output) -> int:
    from . import verify
    if args.verify_sub == "symbolic":
        report = verify.verify_symbolic(args.a, args.degree, cross_check=args.cross_check)
        pairs = [
            ("base", str(report.base)),
            ("degree_bound", str(report.degree_bound)),
            ("cross_checked", str(report.cross_checked).lower()),
            ("pass", str(report.passed).lower()),
        ]
        if report.first_failure is not None:
            j, expected, actual = report.first_failure
            pairs.append(("first_failure", f"index {j}: expected {expected}, got {actual}"))
        out.emit(report.to_json_dict(), _report_lines(pairs))
        return 0 if report.passed else 1

    if args.verify_sub == "numeric":
        z = _parse_complex(args.z)
        report = verify.verify_numeric(args.a, z, args.degree)
        pairs = [
            ("base", str(report.base)),
            ("z", f"{report.z.real},{report.z.imag}"),
            ("degree_bound", str(report.degree_bound)),
            ("value_series", repr(report.value_series)),
            ("value_product", repr(report.value_product)),
            ("target", repr(report.target)),
            ("residual", repr(report.residual)),
            ("tail_bound", repr(report.tail_bound)),
            ("float_slack", repr(report.float_slack)),
            ("pass", str(report.passed).lower()),
        ]
        out.emit(report.to_json_dict(), _report_lines(pairs))
        return 0 if report.passed else 1

    _require(args.workers >= 1, "--workers must be >= 1")
    from .finitefield import DEFAULT_BUDGET
    report = verify.verify_count_bridge(
        args.p, args.k, args.n_max, method=args.test, workers=args.workers,
        budget=DEFAULT_BUDGET if args.budget is None else args.budget,
    )
    lines = [f"{'n':>4}  {'formula':>16}  {'measured':>16}  equal"]
    for n, formula, measured in report.rows:
        lines.append(
            f"{n:>4}  {formula:>16}  {measured:>16}  {str(formula == measured).lower()}"
        )
    lines.append(f"pass: {str(report.passed).lower()}")
    out.emit(report.to_json_dict(), lines)
    return 0 if report.passed else 1


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and return the process exit status."""
    # exact values routinely pass Python's default 4,300-digit limit on
    # int-to-str conversion (added in 3.10.7, 3.11.0)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    out = _Output(json_mode=getattr(args, "json", False), quiet=getattr(args, "quiet", False))
    handlers = {
        "mobius": _cmd_mobius,
        "necklace": _cmd_necklace,
        "expand": _cmd_expand,
        "field": _cmd_field,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, out)
    except (ValueError, RuntimeError) as exc:
        # the one RuntimeError that is a refusal, BudgetExceededError, can only
        # come from a finitefield already loaded
        budget_error = getattr(sys.modules.get(f"{__package__}.finitefield"), "BudgetExceededError", ())
        if not isinstance(exc, (ValueError, budget_error)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # the engine never calls BLAS (its one matmul is on integers), and one
    # OpenBLAS thread makes importing numpy about 70 ms cheaper; forked pool
    # workers inherit it, and a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
