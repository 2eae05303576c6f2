"""Tests of the benchmark itself: its checks, its deadlines and its span
arithmetic.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calls  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _count_call(expected: int) -> workloads.Call:
    argv = ("field", "count", "--p", "2", "--k", "1", "--n", "4")
    return workloads.Call(argv, "count", 16, workloads.expect_stdout(str(expected)))


def _far_end() -> float:
    return time.perf_counter() + 60.0


@pytest.fixture(autouse=True)
def tmp_dir():
    run.TMP.mkdir(parents=True, exist_ok=True)
    yield run.TMP
    for path in run.TMP.iterdir():
        path.unlink()
    run.TMP.rmdir()
    try:
        run.TMP.parent.rmdir()
    except OSError:  # a benchmark run is using it
        pass


def test_independent_arithmetic():
    assert [workloads.necklace(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert workloads.necklace(4, 2) == 6
    assert [workloads.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for a in (2, 3, 5):
        exponents = [workloads.necklace(a, n) for n in range(1, 13)]
        assert workloads.expand_product(exponents) == [1, -a] + [0] * 11
    # (1 - z)^-1 = 1 + z + z^2 + ...
    assert workloads.expand_product([-1, 0, 0, 0]) == [1, 1, 1, 1, 1]


def test_checker_flags_wrong_expected_count():
    env = run._env()
    right = run.run_call(_count_call(workloads.necklace(2, 4)), env, _far_end(), False)
    assert right.error is None
    wrong = run.run_call(_count_call(workloads.necklace(2, 4) + 1), env, _far_end(), False)
    assert wrong.error is not None and "stdout" in wrong.error
    correct, failed = run.tally([right, wrong])
    assert not correct and failed == 1


def test_checker_flags_refusal_that_answers():
    call = workloads.refuse_call(("necklace", "--a", "2", "--n", "4"))
    result = run.run_call(call, run._env(), _far_end(), False)
    assert result.error == "exit 0, expected 2"


def test_hanging_call_is_killed_at_deadline_and_counted_failed(monkeypatch):
    monkeypatch.setattr(run, "REFUSE_DEADLINE_S", 0.5)
    # a call that answers slowly, standing in for one that hangs
    call = workloads.refuse_call(("necklace", "table", "--a", "2", "--degree", "12000"))
    start = time.perf_counter()
    result = run.run_call(call, run._env(), _far_end(), False)
    assert time.perf_counter() - start < 5.0
    assert result.outcome.killed and result.outcome.returncode is None
    assert 0.5 <= result.outcome.wall_s < 5.0
    assert result.error.startswith("killed")
    correct, failed = run.tally([result])
    assert correct and failed == 1


def test_answer_call_past_deadline_makes_run_incorrect(monkeypatch):
    monkeypatch.setattr(run, "ANSWER_DEADLINE_S", 0.3)
    # F_2 at n = 16 takes seconds: it stands in for a count that slowed down
    call = workloads.count_call(2, 1, 16, "rabin", random.Random(0))
    result = run.run_call(call, run._env(), _far_end(), False)
    assert result.outcome.killed and result.error.startswith("killed")
    correct, failed = run.tally([result])
    assert not correct and failed == 1


def _result(call: workloads.Call, wall_s: float, killed: bool = False) -> run.Result:
    outcome = calls.Outcome(None if killed else 0, "", wall_s, wall_s, 1024, killed)
    return run.Result(call, outcome, "killed" if killed else None, None)


def test_killed_count_call_stays_in_work_per_s():
    rng = random.Random(0)
    fast = workloads.count_call(2, 1, 12, "rabin", rng)
    slow = workloads.count_call(2, 1, 16, "rabin", rng)
    answered = run.Pass(False, 3.0, [_result(fast, 1.0), _result(slow, 2.0)])
    killed = run.Pass(False, 61.0, [_result(fast, 1.0), _result(slow, 60.0, killed=True)])
    setup = [0.1]
    rate, _ = run.end_to_end([answered], setup)
    slowed, _ = run.end_to_end([killed], setup)
    assert rate["work_per_s"] == pytest.approx((2**12 + 2**16) / 3.0)
    assert slowed["work_per_s"] == pytest.approx(2**12 / 61.0)


def test_probes_and_refusals_stay_out_of_call_percentiles():
    rng = random.Random(0)
    count = workloads.count_call(2, 1, 12, "rabin", rng)
    refuse = workloads.refuse_call(workloads.REFUSE_COUNT_PRIME[0])
    results = ([_result(count, 2.0), _result(refuse, 1.5, killed=True)]
               + [_result(workloads.trivial_call("probe"), 0.2)] * 3)
    metrics, notes = run.end_to_end([run.Pass(False, 4.1, results)], [0.1])
    assert metrics["call_p50_ms"] == pytest.approx(2000.0)
    assert metrics["call_tail_ms"] == pytest.approx(2000.0)
    assert metrics["cold_start_ms"] == pytest.approx(200.0)
    assert notes["call_samples"] == 1


def test_killed_call_leaves_no_process(tmp_dir):
    calls.become_subreaper()
    # the child starts a grandchild in its session, then both hang
    code = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(p.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    stdout = tmp_dir / "stdout"
    outcome = calls.run([sys.executable, "-c", code], dict(os.environ), ".", 1.0, stdout)
    assert outcome.killed
    grandchild = int(stdout.read_text().split()[0])
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)


def test_deadline_is_cut_at_run_end():
    call = workloads.Call(("necklace", "table", "--a", "2", "--degree", "12000"), "other", 0,
                          workloads.expect_stdout(""))
    start = time.perf_counter()
    result = run.run_call(call, run._env(), start + 0.3, False)
    assert result.outcome.killed
    assert time.perf_counter() - start < 5.0


def test_self_times_never_exceed_span_wall_time():
    spans = [
        ["cli.run", 0.0, 10.0, None, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 3.0, 6.0, 0, {}],  # overlaps its sibling
        ["c", 9.0, 12.0, 0, {}],  # runs past its parent
        ["d", 1.5, 2.0, 1, {}],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx([10.0 - 6.0, 2.5, 3.0, 3.0, 0.5])
    for (name, start, end, parent, attrs), self_s in zip(spans, selfs):
        assert 0.0 <= self_s <= end - start


def test_traced_call_records_spans_of_every_layer_it_enters():
    result = run.run_call(workloads.bridge_call(2, 4), run._env(), _far_end(), True)
    assert result.error is None
    doc = result.spans
    assert doc["import_s"] > 0.0
    names = {s[0] for s in doc["spans"]}
    assert {"cli.run", "verify.verify_count_bridge", "finitefield.build_field",
            "finitefield.count_irreducibles", "exact.necklace_count"} <= names
    for span, self_s in zip(doc["spans"], tracer.self_times(doc["spans"])):
        assert 0.0 <= self_s <= span[2] - span[1]
    counts = [s for s in doc["spans"] if s[0] == "finitefield.count_irreducibles"]
    assert [s[4]["n"] for s in counts] == [1, 2, 3, 4]
    # the bridge nests under cli.run, and the counts under the bridge
    bridge = next(i for i, s in enumerate(doc["spans"]) if s[0] == "verify.verify_count_bridge")
    assert doc["spans"][bridge][3] == 0
    assert all(s[3] == bridge for s in counts)


def test_table_check_reads_rows(tmp_dir):
    check = workloads.expect_table(2, 40, random.Random(0))
    stdout = tmp_dir / "table"
    rows = [f"{n}\t{workloads.necklace(2, n)}\n" for n in range(1, 41)]
    stdout.write_text("".join(rows))
    assert check(0, stdout) is None
    stdout.write_text("".join(rows[:-1]))
    assert check(0, stdout) == "39 table rows, expected 40"
    rows[17] = "18\t0\n"
    stdout.write_text("".join(rows))
    assert check(0, stdout) is not None


def test_missing_program_exits_nonzero_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(["--workload", "identity", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        first = [c.argv for c in workloads.build(name, 7)]
        assert first == [c.argv for c in workloads.build(name, 7)]
        assert first != [c.argv for c in workloads.build(name, 8)]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_samples_above():
    values = list(range(1, 41))
    value, pct = run.tail(values, 40)
    assert value == 30 and pct == 75.0
    assert sum(v > value for v in values) == 10
    # two passes of the same 40 calls: the same percentile, 20 samples above
    value, pct = run.tail(values + values, 40)
    assert value == 30 and pct == 75.0
    assert run.tail([3.0, 1.0], 2) == (3.0, 100.0)
    # at twenty calls or fewer the percentile would not be above the median
    assert run.tail(list(range(1, 21)), 20) == (20, 100.0)
