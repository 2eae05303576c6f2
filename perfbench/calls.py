"""Run one program call as a fresh process, with a deadline, and time it.

Each call runs in its own session, so that a call past its deadline can be
killed together with any pool workers it started.  The call is reaped with
os.wait4, which also gives its peak resident set size.  The benchmark
process makes itself a child subreaper, so that workers orphaned by a
killed call are reparented to it and can be reaped too.

The call's stdout and stderr go to files, not to pipes read into memory.
Linux folds the spawning process's own peak RSS into the child's
ru_maxrss, so the benchmark must stay smaller than any call it measures;
a call printing tens of megabytes would otherwise inflate every later
call's peak.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# how long to wait for the processes of a killed call's session to vanish
_REAP_GRACE_S = 10.0


@dataclass(frozen=True)
class Outcome:
    """What one call did; its stdout is left in the file given to run().
    cpu_s is the user and system time of the call and of the children it
    waited for (pool workers).  killed is True when it was stopped at its
    deadline; then returncode is None, cpu_s runs up to the kill and rss_kb
    is not meaningful."""

    returncode: int | None
    stderr: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    killed: bool


def become_subreaper() -> None:
    """Have orphaned descendants reparented to this process (Linux)."""
    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _end_session(pgid: int) -> None:
    """Kill what is left of the session and reap it.  Members that are not
    children of this process are left to their parent, up to a grace time."""
    end = time.monotonic() + _REAP_GRACE_S
    while time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            time.sleep(0.01)
    raise RuntimeError(f"processes of session {pgid} still present after SIGKILL")


def run(cmd: list[str], env: dict[str, str], cwd: str, deadline_s: float,
        stdout_path: Path) -> Outcome:
    """Run cmd with stdout to stdout_path, to completion or until
    deadline_s has passed, then kill its whole session.  A killed call is
    timed from start until it was reaped."""
    stderr_path = stdout_path.with_name(stdout_path.name + ".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
    reaped: dict = {}

    def reap() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped["end"] = time.perf_counter()
        reaped["status"] = status
        reaped["usage"] = usage

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(deadline_s)
    killed = waiter.is_alive()
    if killed:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended just now
            pass
        waiter.join()
    # pool workers of a killed call may outlive it for a moment
    _end_session(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    stderr = stderr_path.read_text(errors="replace")
    stderr_path.unlink()
    return Outcome(
        returncode=None if killed else proc.returncode,
        stderr=stderr,
        wall_s=reaped["end"] - start,
        cpu_s=reaped["usage"].ru_utime + reaped["usage"].ru_stime,
        rss_kb=reaped["usage"].ru_maxrss,
        killed=killed,
    )
