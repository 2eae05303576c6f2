"""CLI dispatch, output formats, and exit-status contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import neckprod
import neckprod.verify
from neckprod.cli import main, run
from neckprod.exact import necklace_count
from neckprod.finitefield import is_prime
from neckprod.verify import SymbolicReport


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
        code, _, err = invoke(capsys, ["expand", "raw", "--exponents", "1,x,3"])
        assert code == 2

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
watched = ("numpy", "concurrent.futures", "neckprod.engine", "neckprod.exact", "neckprod.finitefield",
           "neckprod.series", "neckprod.verify", "dataclasses", "json")
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


class TestImportGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mobius", "--n", "30"],
            ["necklace", "--a", "2", "--n", "4"],
            ["necklace", "table", "--a", "3", "--degree", "3"],
            ["expand", "--a", "2", "--degree", "8"],
            ["expand", "raw", "--exponents", "1,1,1,1,1"],
            ["verify", "symbolic", "--a", "2", "--degree", "16"],
            ["verify", "numeric", "--a", "2", "--z", "0.25,0", "--degree", "40"],
            ["field", "count", "--p", "3", "--k", "2", "--n", "1"],
        ],
    )
    def test_calls_without_a_sweep_leave_numpy_unloaded(self, argv):
        assert not _SWEEP_MODULES & set(_modules_loaded_by(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["mobius", "--n", "30"],
            ["necklace", "--a", "2", "--n", "4"],
            ["necklace", "table", "--a", "3", "--degree", "3"],
        ],
    )
    def test_exact_calls_load_exact_alone(self, argv):
        assert _modules_loaded_by(argv) == ["neckprod.exact"]

    def test_json_is_loaded_for_json_output_only(self):
        assert _modules_loaded_by(["mobius", "--n", "30", "--json"]) == ["neckprod.exact", "json"]

    def test_field_count_without_a_sweep_loads_no_series_or_verify(self):
        loaded = _modules_loaded_by(["field", "count", "--n", "1", "--p", "3", "--k", "2"])
        assert "neckprod.finitefield" in loaded
        assert not {"neckprod.series", "neckprod.verify"} & set(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "count", "--p", "2", "--k", "1", "--n", "2"],
            ["verify", "bridge", "--p", "2", "--k", "1", "--n-max", "3"],
        ],
    )
    def test_sweeps_load_the_engine(self, argv):
        assert "neckprod.engine" in _modules_loaded_by(argv)


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


def _run_fresh(code, *argv):
    src = os.path.dirname(os.path.dirname(neckprod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


class TestLazyPackage:
    def test_public_names_resolve_to_their_home_objects(self):
        proc = _run_fresh(_SURFACE)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["exact", "finitefield", "series", "verify"])
    def test_submodules_are_attributes_after_a_bare_import(self, module):
        code = "import sys, neckprod; m = getattr(neckprod, sys.argv[1]); print(m.__name__)"
        proc = _run_fresh(code, module)
        assert (proc.returncode, proc.stdout) == (0, f"neckprod.{module}\n"), proc.stderr

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
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.perf_counter() - start < 1.0
        if code == 0:
            assert out.getvalue() == f"{necklace_count(p**k, n)}\n"
        else:
            assert (code, out.getvalue()) == (2, "")
