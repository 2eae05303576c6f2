"""CLI dispatch, output formats, and exit-status contract."""

import concurrent.futures
import contextlib
import decimal
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import neckprod
import neckprod.cli
import neckprod.exact
import neckprod.series
import neckprod.verify
from neckprod.cli import main, run
from neckprod.exact import necklace_count
from neckprod.finitefield import is_prime
from neckprod.verify import BridgeReport, NumericReport, SymbolicReport


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_necklace_count(self, capsys):
        code, out, err = invoke(capsys, ["necklace", "--a", "2", "--n", "4"])
        assert (code, out, err) == (0, "3\n", "")

    def test_mobius(self, capsys):
        code, out, _ = invoke(capsys, ["mobius", "--n", "30"])
        assert (code, out) == (0, "-1\n")

    def test_necklace_table(self, capsys):
        code, out, _ = invoke(capsys, ["necklace", "table", "--a", "3", "--degree", "3"])
        assert code == 0
        assert out.splitlines() == ["1\t3", "2\t3", "3\t8"]

    @pytest.mark.parametrize("a,D", [(1, 50), (2, 1), (2, 700), (3, 2), (1000, 50), (2**61 - 1, 700)])
    def test_necklace_table_writes_the_int_values(self, capsys, a, D):
        # the table is written from exact Decimals, byte for byte as from its ints
        argv = ["necklace", "table", "--a", str(a), "--degree", str(D)]
        text, as_json = invoke(capsys, argv), invoke(capsys, argv + ["--json"])
        values = [str(v) for v in neckprod.exact.build_necklace_table(a, D).values]
        assert text == (0, "".join(f"{n}\t{v}\n" for n, v in enumerate(values, 1)), "")
        obj = {"schema": "necklace.table", "a": a, "degree_bound": D, "values": values}
        assert as_json == (0, json.dumps(obj) + "\n", "")

    def test_expand_necklace(self, capsys):
        code, out, _ = invoke(capsys, ["expand", "--a", "2", "--degree", "8"])
        assert code == 0
        assert out.strip() == "1 -2 0 0 0 0 0 0 0"

    def test_expand_methods_agree(self, capsys):
        _, recursive, _ = invoke(capsys, ["expand", "--a", "3", "--degree", "12"])
        _, direct, _ = invoke(
            capsys, ["expand", "--a", "3", "--degree", "12", "--method", "direct"]
        )
        assert recursive == direct

    def test_expand_raw(self, capsys):
        code, out, _ = invoke(
            capsys, ["expand", "raw", "--exponents", "1,1,1,1,1", "--method", "direct"]
        )
        assert code == 0
        assert out.strip() == "1 -1 -1 0 0 1"

    def test_field_count(self, capsys):
        code, out, _ = invoke(capsys, ["field", "count", "--p", "2", "--k", "2", "--n", "2"])
        assert (code, out) == (0, "6\n")

    def test_field_count_trial(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["field", "count", "--p", "2", "--k", "1", "--n", "4", "--test", "trial"],
        )
        assert (code, out) == (0, "3\n")

    def test_verify_symbolic_text(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "symbolic", "--a", "2", "--degree", "16"])
        assert code == 0
        assert "pass" in out and "true" in out

    def test_verify_numeric(self, capsys):
        code, out, _ = invoke(
            capsys, ["verify", "numeric", "--a", "2", "--z", "0.25,0", "--degree", "40"]
        )
        assert code == 0
        assert "residual" in out

    def test_values_past_the_int_to_str_digit_limit(self, capsys):
        # N(10, 4500) has 4,497 digits, past Python's default limit of 4,300
        code, out, _ = invoke(capsys, ["necklace", "--a", "10", "--n", "4500"])
        assert code == 0
        assert out == f"{necklace_count(10, 4500)}\n"

    def test_verify_bridge(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "bridge", "--p", "5", "--k", "1", "--n-max", "1"])
        assert code == 0
        assert "pass: true" in out


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv,schema",
        [
            (["mobius", "--n", "12"], "mobius"),
            (["necklace", "--a", "2", "--n", "4"], "necklace.count"),
            (["necklace", "table", "--a", "2", "--degree", "4"], "necklace.table"),
            (["expand", "--a", "2", "--degree", "6"], "series.expand"),
            (["expand", "raw", "--exponents", "1,0,-2"], "series.expand"),
            (["field", "count", "--p", "3", "--k", "1", "--n", "3"], "field.count"),
            (["verify", "symbolic", "--a", "2", "--degree", "8"], "verify.symbolic"),
            (["verify", "numeric", "--a", "2", "--z", "0.1,0.1", "--degree", "16"], "verify.numeric"),
            (["verify", "bridge", "--p", "2", "--k", "1", "--n-max", "4"], "verify.bridge"),
        ],
    )
    def test_round_trips_with_schema(self, capsys, argv, schema):
        code, out, _ = invoke(capsys, argv + ["--json"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["schema"] == schema

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["expand", "--a", "2", "--degree", "6", "--method", "direct", "--json"],
                '{"schema": "series.expand", "a": 2, "degree_bound": 6, "method": "direct", '
                '"coefficients": ["1", "-2", "0", "0", "0", "0", "0"]}\n',
            ),
            (
                ["expand", "raw", "--exponents=1,0,-2", "--json"],
                '{"schema": "series.expand", "exponents": ["1", "0", "-2"], "degree_bound": 3, '
                '"method": "recursive", "coefficients": ["1", "-1", "0", "2"]}\n',
            ),
            (["expand", "--a", "2", "--degree", "6", "--method", "direct"], "1 -2 0 0 0 0 0\n"),
            (["expand", "raw", "--exponents=1,0,-2"], "1 -1 0 2\n"),
        ],
        ids=["expand-json", "raw-json", "expand-text", "raw-text"],
    )
    def test_expand_bytes_are_pinned(self, capsys, argv, expected):
        assert invoke(capsys, argv) == (0, expected, "")

    def test_exact_integers_are_strings(self, capsys):
        _, out, _ = invoke(capsys, ["necklace", "--a", "10", "--n", "25", "--json"])
        value = json.loads(out)["value"]
        assert isinstance(value, str)
        assert int(value) == (10**25 - 10**5) // 25

    def test_deterministic_bytes(self, capsys):
        argv = ["verify", "symbolic", "--a", "5", "--degree", "24", "--json"]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second

    def test_worker_count_does_not_affect_output(self, capsys):
        base = ["field", "count", "--p", "2", "--k", "1", "--n", "9", "--json"]
        _, solo, _ = invoke(capsys, base + ["--workers", "1"])
        _, duo, _ = invoke(capsys, base + ["--workers", "2"])
        assert solo == duo

    @pytest.mark.parametrize(
        "before,after",
        [
            (["necklace", "--json", "table", "--a", "3", "--degree", "3"],
             ["necklace", "table", "--a", "3", "--degree", "3", "--json"]),
            (["field", "--json", "count", "--p", "2", "--k", "1", "--n", "3"],
             ["field", "count", "--p", "2", "--k", "1", "--n", "3", "--json"]),
            (["verify", "--quiet", "symbolic", "--a", "2", "--degree", "8"],
             ["verify", "symbolic", "--a", "2", "--degree", "8", "--quiet"]),
            (["expand", "--method", "direct", "raw", "--exponents", "1,2", "--json"],
             ["expand", "raw", "--exponents", "1,2", "--json", "--method", "direct"]),
            (["necklace", "--a", "5", "table", "--degree", "3"],
             ["necklace", "table", "--a", "5", "--degree", "3"]),
        ],
        ids=["necklace-json", "field-json", "verify-quiet", "expand-method", "necklace-a"],
    )
    def test_flags_before_a_subcommand_take_effect(self, capsys, before, after):
        assert invoke(capsys, before) == invoke(capsys, after)

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["necklace", "--a", "2", "--n", "4", "table", "--a", "3", "--degree", "2"], "--n"),
            (["expand", "--a", "2", "--degree", "3", "raw", "--exponents", "1"], "--a and --degree"),
            (["necklace", "table", "--degree", "3"], "requires --a"),
        ],
    )
    def test_options_a_subcommand_does_not_take_are_refused(self, capsys, argv, option):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert option in err


class TestOneBlockSweeps:
    # a sweep of one engine block runs in this process, whatever --workers says
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("test", ["rabin", "trial"])
    def test_field_count(self, capsys, test):
        argv = ["field", "count", "--p", "2", "--k", "1", "--n", "16", "--workers", "2", "--test", test]
        assert invoke(capsys, argv) == (0, f"{necklace_count(2, 16)}\n", "")

    def test_bridge(self, capsys):
        argv = ["verify", "bridge", "--p", "2", "--k", "1", "--n-max", "14", "--workers", "2"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0 and out.endswith("pass: true\n")


class TestBridgeOptions:
    BASE = ["verify", "bridge", "--p", "3", "--k", "1", "--n-max", "4", "--json"]

    def test_test_option_reaches_the_report(self, capsys):
        code, out, _ = invoke(capsys, self.BASE + ["--test", "trial"])
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert report["method"] == "trial"

    def test_budget_option_refuses(self, capsys):
        code, out, err = invoke(capsys, self.BASE + ["--budget", "80"])
        assert (code, out) == (2, "")
        assert "budget of 80" in err and "n_max for q = 3 is 3" in err

    def test_workers_option_keeps_the_output(self, capsys):
        _, solo, _ = invoke(capsys, self.BASE)
        code, duo, _ = invoke(capsys, self.BASE + ["--workers", "2"])
        assert code == 0 and duo == solo
        code, _, err = invoke(capsys, self.BASE + ["--workers", "0"])
        assert code == 2 and "--workers" in err


class TestExitStatus:
    def test_usage_error_unknown_command(self, capsys):
        code, _, err = invoke(capsys, ["frobnicate"])
        assert code == 2
        assert err

    def test_usage_error_missing_flag(self, capsys):
        code, _, err = invoke(capsys, ["mobius"])
        assert code == 2
        assert "usage" in err

    def test_usage_error_bad_a(self, capsys):
        code, _, err = invoke(capsys, ["verify", "symbolic", "--a", "0", "--degree", "8"])
        assert code == 2
        assert "a >= 1" in err

    def test_usage_error_necklace_without_n(self, capsys):
        code, _, err = invoke(capsys, ["necklace", "--a", "2"])
        assert code == 2
        assert "requires" in err

    def test_usage_error_malformed_z(self, capsys):
        code, _, err = invoke(capsys, ["verify", "numeric", "--a", "2", "--z", "0.5", "--degree", "8"])
        assert code == 2
        assert "RE,IM" in err

    def test_usage_error_malformed_exponents(self, capsys):
        # an empty list is refused by int(""), as every malformed part is
        for text in ("1,x,3", "", ","):
            code, _, err = invoke(capsys, ["expand", "raw", "--exponents", text])
            assert code == 2, text
            assert "comma-separated integers" in err, text

    def test_usage_error_outside_regime(self, capsys):
        code, _, err = invoke(capsys, ["verify", "numeric", "--a", "3", "--z", "0.5,0", "--degree", "8"])
        assert code == 2
        assert "1/a" in err

    def test_budget_refusal_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            ["field", "count", "--p", "2", "--k", "1", "--n", "20", "--budget", "1000"],
        )
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "count", "--p", "2", "--k", "1", "--n", "70", "--budget", str(10**23)],
            ["field", "count", "--p", "2", "--k", "40", "--n", "1"],
            ["field", "count", "--p", str(2**61 - 1), "--k", "1", "--n", "1"],
            ["verify", "bridge", "--p", "2", "--k", "30", "--n-max", "1"],
        ],
    )
    def test_oversize_requests_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "budget" in err

    @pytest.mark.parametrize("argv", [["mobius", "--n", str(10**18 + 3)],
                                      ["necklace", "--a", "2", "--n", str(10**13)]])
    def test_oversize_factoring_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "10^12" in err

    @pytest.mark.parametrize(
        "argv,feasible",
        [
            (["verify", "symbolic", "--a", "2", "--degree", "100000", "--cross-check"], 3535),
            (["verify", "symbolic", "--a", "2", "--degree", str(10**30), "--cross-check"], 3535),
            (["expand", "--a", "3", "--degree", "50000", "--method", "direct"], 2808),
            (["expand", "--a", str(10**100), "--degree", "1000", "--method", "direct", "--json"], 193),
        ],
    )
    def test_oversize_direct_expansion_refused_at_once(self, capsys, argv, feasible):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert f"largest feasible degree is {feasible}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["necklace", "table", "--a", "2", "--degree", "300000"],
            ["verify", "numeric", "--a", "2", "--z", "0.3,0", "--degree", "200000"],
            ["verify", "symbolic", "--a", "2", "--degree", "100000"],
            ["expand", "--a", "2", "--degree", "100000"],
            ["necklace", "table", "--a", "1", "--degree", str(10**8)],
            ["verify", "symbolic", "--a", "1", "--degree", "100000"],
            ["verify", "symbolic", "--a", "1", "--degree", "100000", "--cross-check"],
            ["expand", "--a", "1", "--degree", "100000"],
        ],
    )
    def test_oversize_necklace_tables_refused_at_once(self, capsys, argv):
        # each holds the table of N(2, n), n <= D: D^2 / 2 bits past the limit
        # of 4.3 * 10^8, which admits D <= 29325; a table of N(1, n) counts as
        # one of N(2, n)
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "largest feasible degree is 29325" in err
        assert ("a = 1 counts as a = 2" in err) == (argv[argv.index("--a") + 1] == "1")

    def test_largest_base_one_expansion_ends_in_seconds(self):
        # the recursion sums over the two nonzero coefficients of 1 - z, so
        # the largest a = 1 table admitted expands in well under a second;
        # a dense sum would take D^2 / 2 steps, about 20 s
        proc = _run_fresh(_CLI, "expand", "--a", "1", "--degree", "29325", "--quiet", timeout=10)
        assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr

    def test_largest_base_million_table_ends_in_seconds(self, tmp_path):
        # 48 MB of values, written from exact Decimals in time linear in their
        # length; int-to-str, quadratic, took 12 s end to end (2 vCPU)
        path = tmp_path / "table.txt"
        with open(path, "w") as out:
            proc = _run_fresh(_CLI, "necklace", "table", "--a", str(10**6), "--degree", "4000", stdout=out, timeout=5)
        assert proc.returncode == 0, proc.stderr
        with open(path) as lines:
            for rows, last in enumerate(lines, 1):
                pass
        n, value = last.split("\t")
        assert (rows, n) == (4000, "4000") and decimal.Decimal(value) == necklace_count(10**6, 4000)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "numeric", "--a", str(10**400), "--z", "0,0", "--degree", "1"], "a of 1329 bits"),
            (["verify", "numeric", "--a", str(2**1023), "--z", "0,0", "--degree", "1", "--json"], "a of 1024 bits"),
            (["necklace", "--a", "2", "--n", "6000001"], "largest feasible degree is 6000000"),
            (["necklace", "--a", "2", "--n", str(10**12), "--json"], "largest feasible degree is 6000000"),
            (["necklace", "--a", "1000", "--n", "602060"], "largest feasible degree is 602059"),
            (["necklace", "--a", str(10**400), "--n", "4600"], "largest feasible degree is 4515"),
        ],
    )
    def test_oversize_values_refused_at_once(self, capsys, argv, message):
        # a base past the float range of verify numeric, and a necklace count
        # past n log2(a) <= 6 * 10^6 bits, whose decimal form takes a minute
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "exponents,method,message",
        [
            ([1] * 30000, "recursive", "at 1 bits the most exponents admitted is 15874"),
            ([1] * 30000, "direct", "at 1 bits the most exponents admitted is 7937"),
            ([-1] * 7938, "direct", "at 1 bits the most exponents admitted is 7937"),
            ([0] * 15875, "recursive", "15875 exponents of up to 1 bits"),
            ([-(2**1999)] * 101, "recursive", "at 2000 bits the most exponents admitted is 100"),
        ],
    )
    def test_oversize_raw_exponents_refused_at_once(self, capsys, exponents, method, message):
        # explicit exponents past D^3 B^2 <= the expander's limit, for D
        # exponents of at most B bits; 30,000 exponents of 1 would take about
        # 40 s recursive and 4 minutes direct
        argv = ["expand", "raw", "--quiet", "--method", method, "--exponents=" + ",".join(map(str, exponents))]
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert message in err

    def test_raw_exponents_inside_the_limit_answered(self, capsys):
        # exponents as the benchmark's 60 in [-3, 10), and 20 of 2000 bits,
        # by both expanders
        rng = random.Random(60)
        for exponents in ([rng.randrange(-3, 10) for _ in range(60)], [2**1999] * 20):
            argv = ["expand", "raw", "--exponents=" + ",".join(map(str, exponents))]
            outs = [invoke(capsys, argv + ["--method", method]) for method in ("recursive", "direct")]
            assert outs[0] == outs[1] and outs[0][0] == 0

    def test_values_just_inside_the_limits_answered(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "numeric", "--a", str(2**1023 - 1), "--z", "0,0", "--degree", "3",
                                       "--json"])
        report = json.loads(out)
        assert (code, report["pass"], report["base"]) == (0, True, str(2**1023 - 1))
        assert report["float_slack"] < float("inf")
        # a = 1 has no size bound: N(1, n) is 0 past n = 1
        start = time.perf_counter()
        for n, value in [(1, 1), (10**9, 0), (10**12, 0)]:
            assert invoke(capsys, ["necklace", "--a", "1", "--n", str(n)]) == (0, f"{value}\n", "")
        assert invoke(capsys, ["necklace", "--a", "2", "--n", "2000"])[:2] == (0, f"{necklace_count(2, 2000)}\n")
        assert time.perf_counter() - start < 1.0

    def test_large_extension_at_degree_one_answered_at_once(self, capsys):
        argv = ["field", "count", "--p", "2", "--k", "40", "--n", "1", "--budget", "2199023255552"]
        start = time.perf_counter()
        code, out, _ = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "1099511627776\n")

    def test_large_field_above_degree_one_refused(self, capsys):
        argv = ["field", "count", "--p", "2", "--k", "20", "--n", "2", "--budget", str(2**40)]
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "2^16" in err

    def test_bad_worker_count(self, capsys):
        code, _, err = invoke(
            capsys,
            ["field", "count", "--p", "2", "--k", "1", "--n", "3", "--workers", "0"],
        )
        assert code == 2

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        # the identity genuinely holds, so force a failing report through the
        # dispatch layer to pin down the exit-status contract
        failing = SymbolicReport(
            base=2, degree_bound=8, passed=False, first_failure=(1, -2, -3)
        )
        monkeypatch.setattr(neckprod.verify, "verify_symbolic", lambda *a, **k: failing)
        code, out, _ = invoke(capsys, ["verify", "symbolic", "--a", "2", "--degree", "8"])
        assert code == 1
        assert "false" in out

    def test_quiet_suppresses_stdout(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "symbolic", "--a", "2", "--degree", "8", "--quiet"])
        assert code == 0
        assert out == ""

    def test_quiet_keeps_failure_status(self, capsys, monkeypatch):
        failing = SymbolicReport(
            base=2, degree_bound=8, passed=False, first_failure=(1, -2, -3)
        )
        monkeypatch.setattr(neckprod.verify, "verify_symbolic", lambda *a, **k: failing)
        code, out, _ = invoke(capsys, ["verify", "symbolic", "--a", "2", "--degree", "8", "--quiet"])
        assert (code, out) == (1, "")


# runs one CLI call in a fresh interpreter and reports, on the last line of
# stderr, its exit status and which of the watched modules it loaded; json
# is imported only after the call, as it is watched too
_GUARD = """
import sys
from neckprod.cli import run
code = run(sys.argv[1:])
watched = ("numpy", "concurrent.futures", "neckprod.engine", "neckprod.digits", "neckprod.exact", "neckprod.finitefield",
           "neckprod.series", "neckprod.verify", "dataclasses", "inspect", "decimal", "json")
loaded = [m for m in watched if m in sys.modules]
import json
print(json.dumps([code, loaded]), file=sys.stderr)
"""
_SWEEP_MODULES = {"numpy", "concurrent.futures", "neckprod.engine"}


def _modules_loaded_by(argv):
    proc = _run_fresh(_GUARD, *argv)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return loaded


_SERIES_CALLS = [
    ["expand", "--a", "2", "--degree", "8"],
    ["expand", "raw", "--exponents", "1,1,1,1,1"],
    ["verify", "symbolic", "--a", "2", "--degree", "16"],
    ["verify", "numeric", "--a", "2", "--z", "0.25,0", "--degree", "40"],
]
_EXACT_CALLS = [
    ["mobius", "--n", "30"],
    ["necklace", "--a", "2", "--n", "4"],
    ["necklace", "table", "--a", "3", "--degree", "3"],
]
_SWEEP_CALLS = [
    ["field", "count", "--p", "2", "--k", "1", "--n", "2"],
    ["verify", "bridge", "--p", "2", "--k", "1", "--n-max", "3"],
]
# sweeps over F_(2^k) and F_(3^k) run on bit planes; those over p >= 5 on
# numpy digits
_PLANE_SWEEPS = [
    ["field", "count", "--p", "2", "--k", str(k), "--n", str(n), "--test", test]
    for k, n in ((1, 12), (2, 6), (8, 2)) for test in ("rabin", "trial")
] + [["verify", "bridge", "--p", "2", "--k", "1", "--n-max", "10"]]
_TERNARY_SWEEPS = [
    ["field", "count", "--p", "3", "--k", str(k), "--n", str(n), "--test", test]
    for k, n in ((1, 4), (1, 11), (2, 4), (5, 2)) for test in ("rabin", "trial")
] + [["verify", "bridge", "--p", "3", "--k", "1", "--n-max", "8"]]
# one call of every handler, each answering with exit 0
_RENDER_CALLS = _EXACT_CALLS + _SERIES_CALLS + _SWEEP_CALLS + [
    ["verify", "symbolic", "--a", "3", "--degree", "12", "--cross-check"],
    ["expand", "--a", "2", "--degree", "8", "--method", "direct"],
]


def _refuse_to_render(*args, **kwargs):
    raise AssertionError("rendered an output format that was not asked for")


class TestRenderOnce:
    @pytest.mark.parametrize("argv", _RENDER_CALLS)
    def test_text_and_quiet_calls_build_no_json(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(neckprod.series.TruncatedSeries, "to_json", _refuse_to_render)
        for report in (SymbolicReport, NumericReport, BridgeReport):
            monkeypatch.setattr(report, "to_json_dict", _refuse_to_render)
        monkeypatch.setattr(json, "dumps", _refuse_to_render)
        code, out, _ = invoke(capsys, argv)
        assert code == 0 and out
        assert invoke(capsys, argv + ["--quiet"]) == (0, "", "")

    @pytest.mark.parametrize("argv", _RENDER_CALLS)
    def test_quiet_calls_build_no_text(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(neckprod.cli, "_report_lines", _refuse_to_render)
        if argv[:2] == ["necklace", "table"]:  # the table's values are read only to render them
            monkeypatch.setattr(neckprod.exact.NecklaceTable, "values", property(_refuse_to_render))
        assert invoke(capsys, argv + ["--quiet"]) == (0, "", "")

    def test_quiet_table_renders_no_value(self, capsys, monkeypatch):
        # the CLI writes the sweep's values, not a NecklaceTable's
        class Unrendered(int):
            __str__ = __format__ = _refuse_to_render

        for sweep in ("_necklace_values", "_decimal_necklace_values"):
            monkeypatch.setattr(neckprod.exact, sweep, lambda a, D: (Unrendered(1),) * D)
        argv = ["necklace", "table", "--a", "3", "--degree", "5"]
        assert invoke(capsys, argv + ["--quiet"]) == (0, "", "")
        for asked in ([], ["--json"]):
            with pytest.raises(AssertionError, match="not asked for"):
                invoke(capsys, argv + asked)


_DIGIT_SWEEPS = [
    ["field", "count", "--p", "5", "--k", "1", "--n", "4"],
    ["field", "count", "--p", "17", "--k", "2", "--n", "2"],
]


class TestImportGuard:
    @pytest.mark.parametrize(
        "argv", _EXACT_CALLS + _SERIES_CALLS + [["field", "count", "--p", "3", "--k", "2", "--n", "1"]]
    )
    def test_calls_without_a_sweep_leave_numpy_unloaded(self, argv):
        assert not _SWEEP_MODULES & set(_modules_loaded_by(argv))

    @pytest.mark.parametrize("argv", _SERIES_CALLS)
    def test_series_calls_load_no_finitefield_or_inspect(self, argv):
        loaded = _modules_loaded_by(argv)
        assert "neckprod.series" in loaded
        assert not {"neckprod.finitefield", "inspect", "dataclasses"} & set(loaded)

    @pytest.mark.parametrize("argv", _EXACT_CALLS + _SERIES_CALLS + _SWEEP_CALLS)
    def test_no_call_loads_dataclasses(self, argv):
        assert "dataclasses" not in _modules_loaded_by(argv)

    @pytest.mark.parametrize("argv", _EXACT_CALLS)
    def test_exact_calls_load_exact_alone(self, argv):
        # and decimal for a table it writes: `necklace --a 2 --n 4` is the cold-start probe
        writes_table = argv[:2] == ["necklace", "table"]
        assert _modules_loaded_by(argv) == ["neckprod.exact"] + ["decimal"] * writes_table
        assert _modules_loaded_by(argv + ["--quiet"]) == ["neckprod.exact"]

    def test_json_is_loaded_for_json_output_only(self):
        assert _modules_loaded_by(["mobius", "--n", "30", "--json"]) == ["neckprod.exact", "json"]

    def test_field_count_without_a_sweep_loads_no_series_or_verify(self):
        loaded = _modules_loaded_by(["field", "count", "--n", "1", "--p", "3", "--k", "2"])
        assert "neckprod.finitefield" in loaded
        assert not {"neckprod.series", "neckprod.verify", "inspect", "dataclasses"} & set(loaded)

    @pytest.mark.parametrize("argv", _SWEEP_CALLS)
    def test_sweeps_load_the_engine(self, argv):
        assert "neckprod.engine" in _modules_loaded_by(argv)

    @pytest.mark.parametrize("argv", _PLANE_SWEEPS)
    def test_p2_sweeps_leave_numpy_unloaded(self, argv):
        loaded = _modules_loaded_by(argv)
        assert "neckprod.engine" in loaded
        assert not {"numpy", "neckprod.digits"} & set(loaded)

    @pytest.mark.parametrize("argv", _TERNARY_SWEEPS)
    def test_p3_sweeps_leave_numpy_unloaded(self, argv):
        loaded = _modules_loaded_by(argv)
        assert "neckprod.engine" in loaded
        assert not {"numpy", "neckprod.digits"} & set(loaded)

    @pytest.mark.parametrize("argv", _DIGIT_SWEEPS)
    def test_odd_p_sweeps_load_numpy(self, argv):
        loaded = _modules_loaded_by(argv)
        assert {"neckprod.engine", "neckprod.digits", "numpy"} <= set(loaded)

    def test_engine_modules_import_no_finitefield(self):
        # the engine is held to finitefield's scalar tests, so it takes nothing from them
        code = "import sys, neckprod.digits; print(sorted(m for m in sys.modules if m.startswith('neckprod')))"
        proc = _run_fresh(code)
        assert (proc.returncode, proc.stdout) == (0, "['neckprod', 'neckprod.digits', 'neckprod.engine']\n"), proc.stderr

    def test_pooled_sweep_imports_numpy_once(self):
        # numpy is imported before the pool forks, so no worker imports it
        # again; -X importtime writes one line per import, workers' included
        argv = ["field", "count", "--p", "17", "--k", "2", "--n", "2", "--test", "rabin", "--workers", "2"]
        proc = _run_fresh(_CLI, *argv, flags=("-X", "importtime"))
        assert (proc.returncode, proc.stdout) == (0, f"{necklace_count(289, 2)}\n"), proc.stderr
        assert len(re.findall(r"\|\s+numpy$", proc.stderr, re.MULTILINE)) == 1, proc.stderr


# the package's public surface, checked in a fresh interpreter so that no
# module of the package is loaded beforehand
_SURFACE = """
import importlib, sys
import neckprod
assert [m for m in sys.modules if m.startswith("neckprod.")] == [], sys.modules
homes = ("exact", "finitefield", "series", "verify")
for name in neckprod.__all__:
    owners = [h for h in homes if getattr(importlib.import_module("neckprod." + h), name, None) is not None]
    assert getattr(neckprod, name) is getattr(importlib.import_module("neckprod." + owners[0]), name), name
star = {}
exec("from neckprod import *", star)
assert set(star) - {"__builtins__"} == set(neckprod.__all__), star.keys()
assert all(star[name] is getattr(neckprod, name) for name in neckprod.__all__)
try:
    neckprod.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
"""


def _run_fresh(code, *argv, flags=(), timeout=60, stdout=subprocess.PIPE):
    src = os.path.dirname(os.path.dirname(neckprod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *flags, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=timeout)


_CLI = "import sys; from neckprod.cli import run; sys.exit(run(sys.argv[1:]))"


class TestLazyPackage:
    def test_public_names_resolve_to_their_home_objects(self):
        proc = _run_fresh(_SURFACE)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["exact", "finitefield", "series", "verify"])
    def test_submodules_are_attributes_after_a_bare_import(self, module):
        code = "import sys, neckprod; m = getattr(neckprod, sys.argv[1]); print(m.__name__)"
        proc = _run_fresh(code, module)
        assert (proc.returncode, proc.stdout) == (0, f"neckprod.{module}\n"), proc.stderr

    def test_dir_lists_the_lazy_names_without_importing_them(self):
        code = ("import sys, neckprod; names = set(dir(neckprod)); "
                "print(sorted(set(neckprod.__all__) - names), sorted({'exact', 'finitefield', 'series', 'verify'} - names), "
                "[m for m in sys.modules if m.startswith('neckprod')])")
        proc = _run_fresh(code)
        assert (proc.returncode, proc.stdout) == (0, "[] [] ['neckprod']\n"), proc.stderr

    def test_other_runtime_errors_are_not_refusals(self, monkeypatch):
        # only BudgetExceededError among RuntimeErrors maps to exit status 2
        def broken(n):
            raise RuntimeError("internal")

        monkeypatch.setattr(neckprod.exact, "mobius", broken)
        with pytest.raises(RuntimeError, match="internal"):
            run(["mobius", "--n", "6"])


class TestBlasDefault:
    @pytest.mark.parametrize("env,expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
    def test_main_sets_one_thread_unless_set(self, monkeypatch, capsys, env, expected):
        monkeypatch.setattr(os, "environ", dict(env))
        monkeypatch.setattr(sys, "argv", ["neckprod", "mobius", "--n", "6"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert os.environ == {"OPENBLAS_NUM_THREADS": expected}
        assert capsys.readouterr().out == "1\n"


def _answer_or_refuse(argv):
    # argv run in process: its exit status and stdout, which must be an
    # answer (status 0) or a refusal (status 2, nothing on stdout) in under 1 s
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code == 0 or (code, out.getvalue()) == (2, ""), (argv, code, err.getvalue())
    return code, out.getvalue()


_PRIMES = [2, 3, 5, 7, 13, 251, 257, 65521, 65537, 2**31 - 1, 2**61 - 1, 2**64 - 59]


class TestFieldCountFuzz:
    # the small-value branches of p, k and n make about one draw in ten an
    # accepted sweep
    @given(
        p=st.one_of(st.sampled_from(_PRIMES), st.integers(0, 64), st.integers(0, 2**64)),
        k=st.one_of(st.integers(1, 4), st.integers(1, 64)),
        n=st.one_of(st.integers(1, 4), st.integers(1, 80)),
        budget=st.one_of(st.integers(1, 2**12), st.just(2**63)),
        test=st.sampled_from(["rabin", "trial"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_at_once(self, p, k, n, budget, test):
        # a sweep the budget accepts runs as long as its size: leave out the
        # accepted ones beyond 2^12 polynomials
        assume(n == 1 or p**k > 1 << 16 or not is_prime(p) or not 1 << 12 < p ** (k * n) <= budget)
        argv = ["field", "count", "--p", str(p), "--k", str(k), "--n", str(n),
                "--budget", str(budget), "--test", test]
        code, out = _answer_or_refuse(argv)
        if code == 0:
            assert out == f"{necklace_count(p**k, n)}\n"


_FLOATS = ["nan", "-nan", "inf", "-inf", "0", "-0.0", "1e-300", "1e300"]


class TestVerifyNumericFuzz:
    # z drawn as NaN, infinite, on the disk |z| = 1/a, inside it or outside;
    # past degree 2000 only a refusal is quick, so accepted points there are
    # left out
    @given(
        a=st.one_of(st.integers(2, 12), st.integers(-2, 2**64)),
        radius=st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]), st.floats(0.0, 1.5)),
        angle=st.floats(0.0, 6.3),
        parts=st.one_of(st.none(), st.tuples(st.sampled_from(_FLOATS), st.sampled_from(_FLOATS))),
        degree=st.one_of(st.integers(-2, 200), st.integers(1, 29000)),
    )
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_at_once(self, a, radius, angle, parts, degree):
        if parts is None:  # a point at radius / a, |z| = 1/a at radius 1
            z = radius / max(abs(a), 1) * complex(math.cos(angle), math.sin(angle))
            parts = (repr(z.real), repr(z.imag))
        z = complex(*map(float, parts))
        assume(degree <= 2000 or not abs(z) * a < 1.0)
        argv = ["verify", "numeric", "--a", str(a), "--z", ",".join(parts), "--degree", str(degree)]
        code, out = _answer_or_refuse(argv)
        if code == 0:
            assert re.search(r"^pass +true$", out, re.M) and a >= 2 and abs(z) * a < 1.0


# The fuzz classes below check each answer against a closed form or their own
# arithmetic, never against the function the subcommand calls.  A draw in the
# documented domain and small enough to answer at once must be answered; one
# outside it, or past a size limit by more than 0.1%, must be refused; the
# draws in between, and accepted ones too large to answer in 1 s, are left out.

_TEXT = ["", "x", "1.5", "1e3", "0x10", "--1"]  # none of them an integer argparse takes
# n is drawn as a product of these, so its primes are known; the last is just
# below 10^12, the largest n that mobius and necklace factor
_FACTOR_PRIMES = [2, 3, 5, 7, 11, 13, 65537, 999983, 999999999989]
_N = st.one_of(st.integers(1, 30), st.lists(st.sampled_from(_FACTOR_PRIMES), max_size=8),
               st.integers(-2**64, 0), st.integers(10**12 + 1, 2**64), st.sampled_from(_TEXT))


def _primes(n):
    # the distinct primes of n, drawn as a list of primes or an int up to 30
    if isinstance(n, list):
        return sorted(set(n))
    return [l for l in range(2, n + 1) if n % l == 0 and all(l % d for d in range(2, l))]


def _bits(a, degree):
    # D^2 log2(a), the size of a's necklace table up to degree D, a = 1 counted as 2
    return degree * degree * math.log2(max(a, 2))


def _necklaces(a, n, primes):
    # N(a, n) from the distinct primes of n: the Mobius sum over the
    # squarefree divisors m of n, (1/n) sum (-1)^(primes of m) a^(n/m)
    total = sum((-1) ** r * a ** (n // math.prod(m)) for r in range(len(primes) + 1)
                for m in itertools.combinations(primes, r))
    assert total % n == 0
    return total // n


def _product(exponents):
    # prod (1 - z^n)^e(n) mod z^(D + 1), a factor at a time from its binomial
    # series: (-1)^j C(e, j) z^(nj) for e >= 0, C(j - e - 1, j) z^(nj) for e < 0
    D = len(exponents)
    c = [1] + [0] * D
    for n, e in enumerate(exponents, 1):
        b = [(-1) ** j * math.comb(e, j) if e >= 0 else math.comb(j - e - 1, j) for j in range(D // n + 1)]
        c = [sum(b[j] * c[m - n * j] for j in range(m // n + 1)) for m in range(D + 1)]
    return c


class TestMobiusFuzz:
    @given(n=_N)
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_at_once(self, n):
        value = math.prod(n) if isinstance(n, list) else n
        code, out = _answer_or_refuse(["mobius", "--n", str(value)])
        if not isinstance(n, str) and 1 <= value <= 10**12:
            primes = _primes(n)
            mu = 0 if any(value % (l * l) == 0 for l in primes) else (-1) ** len(primes)
            assert (code, out) == (0, f"{mu}\n")
        else:
            assert code == 2


class TestNecklaceFuzz:
    @given(a=st.one_of(st.integers(1, 12), st.integers(-2, 2**64)), n=_N)
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_at_once(self, a, n):
        value = math.prod(n) if isinstance(n, list) else n
        valid = not isinstance(n, str) and a >= 1 and 1 <= value <= 10**12
        size = value * math.log2(a) if valid else 0  # N(1, n) is 0 or 1, with no bound on n
        assume(not valid or size <= 2**16 or size > 6_000_000 * 1.001)  # the limit is n log2(a) <= 6 * 10^6
        code, out = _answer_or_refuse(["necklace", "--a", str(a), "--n", str(value)])
        if valid and size <= 2**16:
            assert (code, out) == (0, f"{_necklaces(a, value, _primes(n))}\n")
        else:
            assert code == 2


class TestNecklaceTableFuzz:
    # --a before or after "table", and a stray --n, which the table refuses
    @given(
        a=st.one_of(st.integers(1, 12), st.integers(-2, 2**64)),
        degree=st.one_of(st.integers(-2, 300), st.integers(-2, 10**5)),
        a_first=st.booleans(),
        stray_n=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_answers_or_refuses_at_once(self, a, degree, a_first, stray_n):
        valid = a >= 1 and degree >= 1 and not stray_n
        size = _bits(a, degree)
        assume(not valid or size <= 2**22 or size > 8.6e8 * 1.001)  # the limit is D^2 log2(a) <= 8.6 * 10^8
        argv = (["necklace"] + ["--n", "3"] * stray_n + ["--a", str(a)] * a_first + ["table"]
                + ["--a", str(a)] * (not a_first) + ["--degree", str(degree)])
        code, out = _answer_or_refuse(argv)
        if not (valid and size <= 2**22):
            assert code == 2
            return
        rows = [line.split("\t") for line in out.splitlines()]
        assert code == 0 and [int(n) for n, _ in rows] == list(range(1, degree + 1))
        # Gauss: sum over d | m of d N(a, d) is a^m, which fixes every row
        sums = [0] * (degree + 1)
        for d, (_, value) in enumerate(rows, 1):
            for m in range(d, degree + 1, d):
                sums[m] += d * int(value)
        assert sums[1:] == [a**m for m in range(1, degree + 1)]


# accepted sizes D^2 log2(a) that answer at once, per expander
_QUICK = {"recursive": 2**22, "direct": 2**19}


class TestExpandFuzz:
    @given(
        a=st.one_of(st.integers(1, 12), st.integers(-2, 2**64)),
        degree=st.one_of(st.integers(-2, 12), st.integers(-2, 300), st.integers(-2, 40000)),
        method=st.sampled_from([None, "recursive", "direct"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_answers_or_refuses_at_once(self, a, degree, method):
        valid, size = a >= 1 and degree >= 1, _bits(a, degree)
        # direct refuses D^2 log2(a) > 1.25 * 10^7 (a >= 2), every table past 8.6 * 10^8
        refused = not valid or size > 8.6e8 * 1.001 or method == "direct" and a >= 2 and size > 1.25e7 * 1.001
        assume(refused or size <= _QUICK[method or "recursive"])
        code, out = _answer_or_refuse(["expand", "--a", str(a), "--degree", str(degree)]
                                      + ["--method", method] * (method is not None))
        if refused:
            assert code == 2
        else:
            assert (code, out) == (0, " ".join(["1", str(-a)] + ["0"] * (degree - 1)) + "\n")


class TestExpandRawFuzz:
    # exponent lists up to 40,000 long, cycling the drawn values, probe the
    # size limits, where only a refusal is quick
    @given(
        exponents=st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)), min_size=1, max_size=40),
        length=st.one_of(st.none(), st.integers(1, 40000)),
        sep=st.sampled_from([",", ", "]),
        method=st.sampled_from([None, "recursive", "direct"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_answers_or_refuses_at_once(self, exponents, length, sep, method):
        if length is not None:
            exponents = (exponents * length)[:length]
        size = len(exponents) ** 3 * max(abs(e).bit_length() or 1 for e in exponents) ** 2
        refused = size > neckprod.series._RAW_LIMITS[method or "recursive"]
        assume(refused or len(exponents) <= 60)
        code, out = _answer_or_refuse(["expand", "raw", f"--exponents={sep.join(map(str, exponents))}"]
                                      + ["--method", method] * (method is not None))
        if refused:
            assert code == 2
        else:
            assert (code, out) == (0, " ".join(map(str, _product(exponents))) + "\n")

    # text that is no list of integers, or a list after a stray --a
    @given(
        text=st.sampled_from(_TEXT + [",", "1,", "1,,2", "1,2"]),
        method=st.sampled_from([None, "recursive", "direct"]),
        stray_a=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_malformed_argv_refused(self, text, method, stray_a):
        assume(stray_a or text != "1,2")
        argv = (["expand"] + ["--a", "2"] * stray_a + ["raw", f"--exponents={text}"]
                + ["--method", method] * (method is not None))
        assert _answer_or_refuse(argv)[0] == 2


class TestVerifySymbolicFuzz:
    @given(
        a=st.one_of(st.integers(1, 12), st.integers(-2, 2**64)),
        degree=st.one_of(st.integers(-2, 12), st.integers(-2, 300), st.integers(-2, 40000)),
        cross_check=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_answers_or_refuses_at_once(self, a, degree, cross_check):
        valid, size = a >= 1 and degree >= 1, _bits(a, degree)
        refused = not valid or size > 8.6e8 * 1.001 or cross_check and a >= 2 and size > 1.25e7 * 1.001
        assume(refused or size <= _QUICK["direct" if cross_check else "recursive"])
        code, out = _answer_or_refuse(["verify", "symbolic", "--a", str(a), "--degree", str(degree)]
                                      + ["--cross-check"] * cross_check)
        if refused:
            assert code == 2
        else:
            assert code == 0 and dict(line.split() for line in out.splitlines()) == {
                "base": str(a), "degree_bound": str(degree), "cross_checked": str(cross_check).lower(), "pass": "true"}


class TestVerifyBridgeFuzz:
    # the draws of TestFieldCountFuzz, over every degree up to n_max
    @given(
        p=st.one_of(st.sampled_from(_PRIMES), st.integers(0, 64), st.integers(0, 2**64)),
        k=st.one_of(st.integers(1, 4), st.integers(1, 64)),
        n_max=st.one_of(st.integers(1, 4), st.integers(-1, 80)),
        budget=st.one_of(st.integers(1, 2**12), st.just(2**63)),
        test=st.sampled_from(["rabin", "trial"]),
        workers=st.sampled_from([1, 2, 0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_answers_or_refuses_at_once(self, p, k, n_max, budget, test, workers):
        assume(n_max <= 1 or p**k > 1 << 16 or not is_prime(p) or not 1 << 12 < p ** (k * n_max) <= budget)
        argv = ["verify", "bridge", "--p", str(p), "--k", str(k), "--n-max", str(n_max),
                "--budget", str(budget), "--test", test, "--workers", str(workers)]
        code, out = _answer_or_refuse(argv)
        if code == 0:
            lines = out.splitlines()
            assert lines[0].split() == ["n", "formula", "measured", "equal"] and lines[-1] == "pass: true"
            count = [_necklaces(p**k, n, _primes(n)) for n in range(1, n_max + 1)]
            assert [line.split() for line in lines[1:-1]] == [[str(n), str(c), str(c), "true"]
                                                               for n, c in enumerate(count, 1)]
