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
    # absent by default, so a subcommand's parse keeps a flag given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="emit JSON on stdout")
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS, help="suppress stdout; use the exit status"
    )

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
    p_table.add_argument("--a", type=int, default=argparse.SUPPRESS)  # or given before table
    p_table.add_argument("--degree", type=int, required=True)

    p_expand = sub.add_parser(
        "expand", parents=[common], help="expand prod (1 - z^n)^e(n) mod z^(D+1)"
    )
    p_expand.add_argument("--a", type=int)
    p_expand.add_argument("--degree", type=int)
    expand_sub = p_expand.add_subparsers(dest="expand_sub")
    p_raw = expand_sub.add_parser(
        "raw", parents=[common], help="expansion for explicit exponents e(1),..,e(D)"
    )
    p_raw.add_argument("--exponents", type=str, required=True, help="comma-separated integers")
    for expander in (p_expand, p_raw):
        expander.add_argument("--method", choices=["recursive", "direct"], default=argparse.SUPPRESS)

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
    parser.add_argument("--budget", type=int)
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
    return values


def _emit(args, obj, lines):
    # obj() builds the JSON object and lines() the text lines: only the
    # format asked for is rendered, and neither under --quiet
    if getattr(args, "quiet", False):
        return
    if getattr(args, "json", False):
        import json
        print(json.dumps(obj()))
    else:
        for line in lines():
            print(line)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def _cmd_mobius(args) -> int:
    from . import exact
    value = exact.mobius(args.n)
    _emit(args, lambda: {"schema": "mobius", "n": args.n, "value": str(value)}, lambda: [str(value)])
    return 0


def _cmd_necklace(args) -> int:
    from . import exact
    if getattr(args, "necklace_sub", None) == "table":
        _require(args.a is not None, "necklace table requires --a")
        _require(args.n is None, "--n does not apply to necklace table")
        sweep = exact._necklace_values if getattr(args, "quiet", False) else exact._decimal_necklace_values
        values = sweep(args.a, args.degree)
        _emit(
            args,
            lambda: {
                "schema": "necklace.table",
                "a": args.a,
                "degree_bound": args.degree,
                "values": [str(v) for v in values],
            },
            lambda: (f"{n}\t{v!s}" for n, v in enumerate(values, 1)),
        )
        return 0
    _require(args.a is not None and args.n is not None, "necklace requires --a and --n")
    value = exact.necklace_count(args.a, args.n)
    _emit(
        args,
        lambda: {"schema": "necklace.count", "a": args.a, "n": args.n, "value": str(value)},
        lambda: [str(value)],
    )
    return 0


def _cmd_expand(args) -> int:
    from . import series
    method = getattr(args, "method", "recursive")
    if getattr(args, "expand_sub", None) == "raw":
        _require(args.a is None and args.degree is None, "--a and --degree do not apply to expand raw")
        exponents = _parse_exponents(args.exponents)
        series._check_raw(exponents, method)
        spec = series.ExponentSpec(exponents=exponents)
        head = lambda: {"exponents": [str(e) for e in exponents]}
    else:
        _require(args.a is not None and args.degree is not None, "expand requires --a and --degree")
        from . import verify
        if method == "direct":
            verify._check_direct(args.a, args.degree)
        spec = verify.necklace_exponent_spec(args.a, args.degree)
        head = lambda: {"a": args.a}
    expand = series.expand_direct if method == "direct" else series.expand_recursive
    result = expand(spec)
    _emit(
        args,
        lambda: {
            "schema": "series.expand",
            **head(),
            "degree_bound": spec.degree_bound,
            "method": method,
            "coefficients": result.to_json(),
        },
        lambda: [" ".join(str(c) for c in result.coeffs)],
    )
    return 0


def _cmd_field(args) -> int:
    from . import finitefield
    finitefield.check_sweep(args.p, args.k, args.n, args.test, args.budget)
    fieldctx = finitefield.build_field(args.p, args.k)
    count = finitefield.count_irreducibles(
        fieldctx, args.n, method=args.test, budget=args.budget, workers=args.workers
    )
    _emit(
        args,
        lambda: {
            "schema": "field.count",
            "p": args.p,
            "k": args.k,
            "q": fieldctx.q,
            "n": args.n,
            "method": args.test,
            "count": str(count),
        },
        lambda: [str(count)],
    )
    return 0


def _report_lines(pairs: list[tuple[str, str]]) -> list[str]:
    width = max(len(name) for name, _ in pairs)
    return [f"{name.ljust(width)}  {value}" for name, value in pairs]


def _cmd_verify(args) -> int:
    from . import verify
    if args.verify_sub == "symbolic":
        report = verify.verify_symbolic(args.a, args.degree, cross_check=args.cross_check)

        def lines():
            pairs = [
                ("base", str(report.base)),
                ("degree_bound", str(report.degree_bound)),
                ("cross_checked", str(report.cross_checked).lower()),
                ("pass", str(report.passed).lower()),
            ]
            if report.first_failure is not None:
                j, expected, actual = report.first_failure
                pairs.append(("first_failure", f"index {j}: expected {expected}, got {actual}"))
            return _report_lines(pairs)

        _emit(args, report.to_json_dict, lines)
        return 0 if report.passed else 1

    if args.verify_sub == "numeric":
        z = _parse_complex(args.z)
        report = verify.verify_numeric(args.a, z, args.degree)
        _emit(args, report.to_json_dict, lambda: _report_lines([
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
        ]))
        return 0 if report.passed else 1

    report = verify.verify_count_bridge(
        args.p, args.k, args.n_max, method=args.test, budget=args.budget, workers=args.workers
    )
    _emit(args, report.to_json_dict, lambda: [
        f"{'n':>4}  {'formula':>16}  {'measured':>16}  equal",
        *(f"{n:>4}  {formula:>16}  {measured:>16}  {str(formula == measured).lower()}"
          for n, formula, measured in report.rows),
        f"pass: {str(report.passed).lower()}",
    ])
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
    handlers = {
        "mobius": _cmd_mobius,
        "necklace": _cmd_necklace,
        "expand": _cmd_expand,
        "field": _cmd_field,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # only sweeps over p >= 5 load numpy; their engine never calls BLAS (its
    # one matmul is on integers), and one OpenBLAS thread makes importing
    # numpy about 70 ms cheaper.  Forked pool workers inherit it, and a value
    # the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
