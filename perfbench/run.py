"""neckprod benchmark: seeded lists of real CLI calls, run one at a time.

    python3 perfbench/run.py --workload count-prime|count-ext|identity|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it times the package in the `src/` next to this
directory.  Each call is a fresh `python -m neckprod.cli ...` process with
PYTHONPATH pointing at that `src/` (cold start included), sent only after
the previous one has finished: a closed loop with one client.

A run has two phases.  Set-up (untimed, repeated SETUP_REPS times, median
reported as setup_s) builds the seeded call list with the expected answer
of every call and makes one warm-up call.  The timed phase runs the whole
list (one "pass") again and again while another pass still fits in
--seconds; it always runs at least one.

With --trace 0 the metrics are the end-to-end ones, from untraced passes.
With --trace 1 the run alternates untraced and traced passes; traced calls
go through tracer.py, and the metrics are the per-layer ones.  Every call's
output is checked; a wrong answer makes "correct" false, and a wrong
answer, a wrong exit status or a call killed at its deadline counts as
failed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# call output and span files; one directory per benchmark process
TMP = ROOT / ".perfbench_tmp" / str(os.getpid())

import calls  # noqa: E402  (this directory is sys.path[0])
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
# ROADMAP asks every refusal to take under 1 s; the margin absorbs a slow
# cold start on a busy machine
REFUSE_DEADLINE_S = 1.5
ANSWER_DEADLINE_S = 60.0
# every run must end within 180 s; calls never run past this point
RUN_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "items/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "cold_start_ms": "ms",
    "peak_rss_mb": "MB",
}

# (class, method) pairs the workloads exercise; class is read from the
# input: prime (k = 1), ext (q <= 256) or ext-large (q > 256)
COUNT_CLASSES = (("prime", "rabin"), ("prime", "trial"), ("ext", "rabin"),
                 ("ext", "trial"), ("ext-large", "rabin"))

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "exact.table_s": "s",
    "exact.table_terms": "count",
    "exact.necklace_count_s": "s",
    "exact.mobius_s": "s",
    "series.recursive_s": "s",
    "series.recursive_coeffs": "count",
    "series.direct_s": "s",
    "series.direct_coeffs": "count",
    "series.eval_s": "s",
    "finitefield.build_field_s": "s",
    "finitefield.build_field_calls": "count",
    **{f"finitefield.{c}.{m}.{kind}": unit
       for c, m in COUNT_CLASSES for kind, unit in (("count_s", "s"), ("rows_per_s", "rows/s"))},
    "finitefield.wait_s": "s",
    "finitefield.parallel_eff": "ratio",
    "verify.symbolic_s": "s",
    "verify.numeric_s": "s",
    "verify.bridge_s": "s",
    "verify.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Result:
    call: workloads.Call
    outcome: calls.Outcome
    error: str | None  # None when the call did what was expected
    spans: dict | None  # the traced call's span file, if it wrote one


@dataclass(frozen=True)
class Pass:
    traced: bool
    wall_s: float
    results: list[Result]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_call(call: workloads.Call, env: dict, run_end: float, traced: bool) -> Result:
    """Run one call with its stdout and span files in TMP, which must
    exist, and check its result."""
    deadline = REFUSE_DEADLINE_S if call.kind == "refuse" else ANSWER_DEADLINE_S
    deadline = max(min(deadline, run_end - time.perf_counter()), 0.0)
    stdout_path = TMP / "stdout"
    spans_path = TMP / "spans.json"
    spans_path.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *call.argv]
    else:
        cmd = [sys.executable, "-m", "neckprod.cli", *call.argv]
    outcome = calls.run(cmd, env, str(ROOT), deadline, stdout_path)
    if outcome.killed:
        error = f"killed at its {deadline:.1f} s deadline"
    else:
        error = call.check(outcome.returncode, stdout_path)
    stdout_path.unlink()
    spans = None
    if spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return Result(call, outcome, error, spans)


def run_pass(call_list, env, run_end, traced: bool) -> Pass:
    start = time.perf_counter()
    results = [run_call(call, env, run_end, traced) for call in call_list]
    return Pass(traced, time.perf_counter() - start, results)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tally(results: list[Result]) -> tuple[bool, int]:
    """(correct, failed): correct is False when a call gave a wrong answer
    or exit status, or when a call that must answer was killed at its
    deadline; failed counts those calls and the must-refuse calls killed at
    theirs."""
    correct = all(r.error is None or (r.outcome.killed and r.call.kind == "refuse")
                  for r in results)
    return correct, sum(r.error is not None for r in results)


def tail(values: list[float], per_pass: int) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    ten of a pass's per_pass calls above it; the maximum when that
    percentile would not be above the median (twenty calls or fewer).  The
    percentile is fixed by the workload, so runs with different numbers of
    passes report the same statistic."""
    ordered = sorted(values)
    if per_pass <= 20:
        return ordered[-1], 100.0
    pct = 100.0 * (per_pass - 10) / per_pass
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], pct


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, and notes about them."""
    untraced = [p for p in passes if not p.traced]
    results = [r for p in untraced for r in p.results]
    # call times cover the calls that must answer: a must-refuse call that
    # hangs is timed at its deadline, a constant, and the probes would
    # outnumber the engine calls on count-*
    timed = [r for r in results if r.call.kind not in ("probe", "refuse")]
    times = [r.outcome.wall_s for r in timed]
    # work is charged at the CPU time of the calls, pool workers included:
    # on a shared machine wall time drifts more.  A call that fails adds
    # its time but no work.
    work = [r for r in results if r.call.kind in ("count", "series")]
    work_cpu_s = sum(r.outcome.cpu_s for r in work)
    trivial = [r.outcome.wall_s for r in results if r.call.kind in ("trivial", "probe")]
    tail_s, tail_pct = tail(times, len(timed) // len(untraced))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "work_per_s": (sum(r.call.work for r in work if r.error is None) / work_cpu_s
                       if work_cpu_s else 0.0),
        "call_p50_ms": 1000.0 * statistics.median(times),
        "call_tail_ms": 1000.0 * tail_s,
        "cold_start_ms": 1000.0 * _median(trivial),
        "peak_rss_mb": max((r.outcome.rss_kb for r in results if not r.outcome.killed),
                           default=0) / 1024.0,
    }
    notes = {
        "call_tail_percentile": round(tail_pct, 2),
        "call_samples": len(times),
        "passes": len(untraced),
        "failed_ratio": sum(r.error is not None for r in results) / len(results),
    }
    return metrics, notes


def count_class(attrs: dict) -> str:
    if attrs["k"] == 1:
        return "prime"
    return "ext" if attrs["q"] <= 256 else "ext-large"


def per_layer(passes: list[Pass]) -> dict:
    """Per-layer metrics from the traced passes: sums per pass for times
    and counts, medians per call for the cli layer."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n_passes = len(traced)
    docs = [r.spans for p in traced for r in p.results if r.spans is not None]
    spans = [(s, self_s) for doc in docs
             for s, self_s in zip(doc["spans"], tracer.self_times(doc["spans"]))]

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s, _ in spans if s[0] == name) / n_passes

    def attr_total(name: str, attr: str) -> float:
        return sum(s[4][attr] for s, _ in spans if s[0] == name) / n_passes

    counts = [s for s, _ in spans if s[0] == "finitefield.count_irreducibles"]
    pooled = [s for s in counts if s[4]["workers"] > 1]
    m = {
        "cli.import_ms": 1000.0 * _median([d["import_s"] for d in docs]),
        "cli.self_ms": 1000.0 * _median([self_s for s, self_s in spans if s[0] == "cli.run"]),
        "exact.table_s": total("exact.build_necklace_table"),
        "exact.table_terms": attr_total("exact.build_necklace_table", "terms"),
        "exact.necklace_count_s": total("exact.necklace_count"),
        "exact.mobius_s": total("exact.mobius"),
        "series.recursive_s": total("series.expand_recursive"),
        "series.recursive_coeffs": attr_total("series.expand_recursive", "coeffs"),
        "series.direct_s": total("series.expand_direct"),
        "series.direct_coeffs": attr_total("series.expand_direct", "coeffs"),
        "series.eval_s": total("series.eval_complex"),
        "finitefield.build_field_s": total("finitefield.build_field"),
        "finitefield.build_field_calls": sum(
            s[0] == "finitefield.build_field" for s, _ in spans) / n_passes,
    }
    for cls, method in COUNT_CLASSES:
        mine = [s for s in counts if count_class(s[4]) == cls and s[4]["method"] == method]
        busy = sum(s[2] - s[1] for s in mine)
        rows = sum(s[4]["q"] ** s[4]["n"] for s in mine)
        m[f"finitefield.{cls}.{method}.count_s"] = busy / n_passes
        m[f"finitefield.{cls}.{method}.rows_per_s"] = rows / busy if busy else 0.0
    pool_capacity = sum(s[4]["workers"] * (s[2] - s[1]) for s in pooled)
    m["finitefield.wait_s"] = sum((s[2] - s[1]) - s[4]["cpu_s"] for s in counts) / n_passes
    m["finitefield.parallel_eff"] = (sum(s[4]["child_cpu_s"] for s in pooled) / pool_capacity
                                     if pool_capacity else 0.0)
    m["verify.symbolic_s"] = total("verify.verify_symbolic")
    m["verify.numeric_s"] = total("verify.verify_numeric")
    m["verify.bridge_s"] = total("verify.verify_count_bridge")
    m["verify.self_s"] = sum(self_s for s, self_s in spans if s[0].startswith("verify.")) / n_passes
    m["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                             - statistics.median(p.wall_s for p in untraced))
    return m


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "neckprod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, env: dict, run_end: float):
    """Build the seeded call list and make one warm-up call.  Returns the
    list, or None with a message on stderr when the program cannot run."""
    call_list = workloads.build(name, seed)
    warm = run_call(workloads.trivial_call(), env, run_end, False)
    if warm.error is not None:
        print(f"error: warm-up call failed ({warm.error}): {warm.outcome.stderr.strip()[-300:]}",
              file=sys.stderr)
        return None
    return call_list


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_end: float):
    """One run of one workload: prints every metric and a record of the
    run, and returns (correct, attempted, failed, metrics) for the result
    line, or None when set-up failed."""
    env = _env()
    loadavg_start = _loadavg()
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        call_list = setup(name, seed, env, run_end)
        if call_list is None:
            return None
        setup_times.append(time.perf_counter() - start)

    passes: list[Pass] = []
    start = time.perf_counter()
    modes = (False, True) if trace else (False,)
    while True:
        for traced in modes:
            passes.append(run_pass(call_list, env, run_end, traced))
        now = time.perf_counter()
        cycle = (now - start) / (len(passes) / len(modes))
        if now - start + cycle > seconds or now + cycle > run_end:
            break

    results = [r for p in passes for r in p.results]
    for r in results:
        if r.error is not None:
            print(f"FAILED {r.error}: neckprod {' '.join(r.call.argv)[:200]}")
    metrics, notes = end_to_end(passes, setup_times)
    unit_of = dict(END_TO_END)
    if trace:
        metrics.update(per_layer(passes))
        unit_of.update(PER_LAYER)
    for metric, value in metrics.items():
        print(f"{name}  {metric:<42} {value:14.6f} {unit_of[metric]}")
    # calls' ru_maxrss include this process's peak; it must stay below theirs
    bench_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              **environment(), **notes, "bench_peak_rss_mb": round(bench_rss_mb, 1),
              "loadavg_start": loadavg_start, "loadavg_end": _loadavg()}
    if trace:
        # calls killed at their deadline write no span file
        record["traced_calls_without_spans"] = sum(
            r.spans is None for p in passes if p.traced for r in p.results)
    print(f"{name}  record {json.dumps(record)}")
    correct, failed = tally(results)
    wanted = PER_LAYER if trace else END_TO_END
    reported = {k: {"value": metrics[k], "unit": unit_of[k]} for k in wanted}
    return correct, len(results), failed, reported


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "neckprod" / "cli.py").is_file():
        print(f"error: no neckprod package under {SRC}", file=sys.stderr)
        return 2
    calls.become_subreaper()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run_end = time.perf_counter() + RUN_LIMIT_S
        TMP.mkdir(parents=True, exist_ok=True)
        try:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), run_end)
        finally:
            shutil.rmtree(TMP, ignore_errors=True)
            try:
                TMP.parent.rmdir()
            except OSError:  # another run is using it
                pass
        if outcome is None:
            return 2
        correct, attempted, failed, metrics = outcome
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
