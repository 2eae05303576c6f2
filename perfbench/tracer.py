"""Traced launcher: run one CLI call with span recorders around the public
functions of exact, series, finitefield and verify.

    PYTHONPATH=src python perfbench/tracer.py SPANS.json neckprod-argv...

behaves like `python -m neckprod.cli neckprod-argv...` (same stdout, stderr
and exit status) and in addition writes SPANS.json at exit:

    {"import_s": <seconds to import neckprod.cli>,
     "spans": [[name, start_s, end_s, parent_index_or_null, attrs], ...]}

Every public function defined in one of the four modules is wrapped, both
in its own module and wherever another module of the package imported it
by name (verify imports from exact, series and finitefield; cli reaches
them through module attributes).  The whole call is one span, "cli.run".
Spans recorded inside pool workers (`--workers` > 1) stay in the worker
and are lost; the parent's count_irreducibles span covers them, and its
attributes carry the workers' CPU time.  A call killed at its deadline
writes no spans.

The span stack is kept in a plain list: the CLI is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

LAYERS = ("exact", "series", "finitefield", "verify")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _count_attrs(bound: inspect.BoundArguments) -> dict:
    a = bound.arguments
    field = a["field"]
    return {"p": field.p, "k": field.k, "q": field.q, "n": a["n"],
            "method": a["method"], "workers": a["workers"]}


def _series_attrs(bound: inspect.BoundArguments) -> dict:
    return {"coeffs": bound.arguments["spec"].degree_bound + 1}


def _table_attrs(bound: inspect.BoundArguments) -> dict:
    return {"terms": bound.arguments["degree_bound"]}


# functions whose spans carry attributes read from their arguments
_ATTRS = {
    "finitefield.count_irreducibles": _count_attrs,
    "series.expand_recursive": _series_attrs,
    "series.expand_direct": _series_attrs,
    "exact.build_necklace_table": _table_attrs,
}
# functions whose spans also record the CPU time of the process and of the
# children it waited for
_CPU = {"finitefield.count_irreducibles"}


class Tracer:
    """Span recorder; spans[i] = [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        attrs = {}
        if name in _ATTRS:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = _ATTRS[name](bound)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, attrs]
        self.spans.append(span)
        self._stack.append(idx)
        cpu = name in _CPU
        if cpu:
            cpu0, child0 = time.process_time(), _children_cpu_s()
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            if cpu:
                attrs["cpu_s"] = time.process_time() - cpu0
                attrs["child_cpu_s"] = _children_cpu_s() - child0
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def install(tracer: Tracer, package, modules: dict) -> None:
    """Replace every public function of each layer module, in that module
    and in every other module of the package that holds it by name."""
    holders = [package, *modules.values()]
    for layer in LAYERS:
        module = modules[layer]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", obj)
            for holder in holders:
                if getattr(holder, attr, None) is obj:
                    setattr(holder, attr, wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.
    Children are clipped to their parent and overlaps counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(end - start, 0.0) - covered)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import neckprod
    import neckprod.cli as cli
    from neckprod import exact, finitefield, series, verify

    import_s = time.perf_counter() - start
    tracer = Tracer()
    modules = {"exact": exact, "series": series, "finitefield": finitefield,
               "verify": verify, "cli": cli}
    install(tracer, neckprod, modules)
    pid = os.getpid()
    try:
        return tracer.call("cli.run", cli.run, cli_argv)
    finally:
        # a forked pool worker holds a copy of this frame; only the process
        # that started the call writes
        if os.getpid() == pid:
            with open(spans_path, "w") as fh:
                json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
