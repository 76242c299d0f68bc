"""Per-layer spans for the traced run.

The tracer wraps library functions from outside, at the names each
module looks up at call time (`cdt.search.refine_colors`,
`cdt.canon.refine_colors`, `cdt.search._has_clique`, ...), and restores
them afterwards.  Spans are aggregated in memory as (calls, self time,
items, total time) per name; self time is a span's duration minus the
time its child spans took.

The fork pool of the search runs tasks in child processes that inherit
the wrappers.  Each task resets the child's table, and at the end of
the task writes its table and its (start, end, pid) span as one line to
an append-only in-memory file (`memfd_create`, so nothing is written to
disk) shared with the parent, so the result value the library passes
back is untouched.
"""

from __future__ import annotations

import fcntl
import functools
import json
import os
import statistics
import sys
from time import perf_counter

# (span name, defining module, attribute, kind).  Every binding of the
# function in a loaded `cdt` module is wrapped, except that the
# "search_span" kind wraps only the `cdt.search` binding: `_has_clique`
# recurses through its own module-level name.
SPECS = (
    ("canon.refine_colors", "cdt.canon", "refine_colors", "canon"),
    ("canon.canon_raw", "cdt.canon", "canon_raw", "canon"),
    ("search.subset_reps", "cdt.search", "_subset_reps", "generator"),
    ("search.expand", "cdt.search", "_expand", "generator"),
    ("search.accept", "cdt.search", "_accept", "accept"),
    ("search.finalize", "cdt.search", "_finalize_levels", "span"),
    ("search.levels", "cdt.search", "_search_levels", "levels"),
    ("search.get_context", "cdt.search", "get_context", "pool_start"),
    ("search.task", "cdt.search", "_subtree_worker", "task"),
    ("cliques.has_clique", "cdt.search", "_has_clique", "search_span"),
    ("cliques.count_of_size", "cdt.cliques", "_count_of_size", "span"),
    ("cliques.size_counts", "cdt.cliques", "_size_counts", "span"),
    ("cliques.per_vertex_size_counts", "cdt.cliques", "_per_vertex_size_counts", "span"),
    ("cliques.max_clique", "cdt.cliques", "_max_clique", "span"),
    ("cliques.border_profile", "cdt.cliques", "border_profile", "span"),
    ("cliques.is_detachable", "cdt.cliques", "is_detachable", "span"),
    ("graphs.graph6_decode", "cdt.graphs", "graph6_decode", "span"),
    ("graphs.graph6_encode", "cdt.graphs", "graph6_encode", "span"),
    ("graphs.graph_init", "cdt.graphs", "Graph.__init__", "span"),
    ("cli.main", "cdt.cli", "main", "span"),
    ("bounds.upper_bound", "cdt.bounds", "upper_bound", "span"),
    ("bounds.lower_bound", "cdt.bounds", "lower_bound", "span"),
    ("bounds.exact_value", "cdt.bounds", "exact_value", "span"),
    ("bounds.turan_graph", "cdt.bounds", "turan_graph", "span"),
    ("bounds.turan_clique_count", "cdt.bounds", "turan_clique_count", "span"),
)

COUNT, SELF, ITEMS, TOTAL = range(4)


def _bindings(module_name: str, attr: str, search_only: bool):
    """(owner, attribute) pairs that currently hold the target function."""
    owner = sys.modules[module_name]
    if "." in attr:  # a method: the class is its only binding
        cls_name, meth = attr.split(".")
        return [(getattr(owner, cls_name), meth)]
    target = getattr(owner, attr)
    mods = ["cdt.search"] if search_only else sorted(m for m in sys.modules if m == "cdt" or m.startswith("cdt."))
    return [
        (sys.modules[m], name)
        for m in mods
        for name, value in list(vars(sys.modules[m]).items())
        if value is target
    ]


class Tracer:
    def __init__(self):
        self.table: dict[str, list] = {}
        self.stack = [0.0]  # child time of each open span; [0] is the root
        self.modes: list[str] = []  # "search" inside a canon call made by the search
        self.raw_entries = 0  # canon_raw calls so far, for the refine-only share
        self.tasks: list[tuple[float, float, int]] = []
        self.pool_start = self.pool_end = None
        self._patches: list[tuple[object, str, object]] = []
        self._fd = None

    # -- span bookkeeping --------------------------------------------------

    def _entry(self, name: str) -> list:
        rec = self.table.get(name)
        if rec is None:
            rec = self.table[name] = [0, 0.0, 0, 0.0]
        return rec

    def _open(self) -> float:
        self.stack.append(0.0)
        return perf_counter()

    def _close(self, name: str, t0: float, calls: int = 1) -> list:
        dt = perf_counter() - t0
        stack = self.stack
        child = stack.pop()
        stack[-1] += dt
        rec = self._entry(name)
        rec[COUNT] += calls
        rec[SELF] += dt - child
        rec[TOTAL] += dt
        return rec

    # -- wrapper kinds ---------------------------------------------------------

    def _span(self, name, fn, owner):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tr._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(name, t0)

        return wrapper

    def _canon(self, name, fn, owner):
        tr = self
        from_search = getattr(owner, "__name__", "") == "cdt.search"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if from_search:
                tr.modes.append("search")
            if name == "canon.canon_raw":
                tr.raw_entries += 1
            span = f"{name}.{tr.modes[-1] if tr.modes else 'oneshot'}"
            t0 = tr._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(span, t0)
                if from_search:
                    tr.modes.pop()

        return wrapper

    def _generator(self, name, fn, owner):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr._entry(name)[COUNT] += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = tr._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec = tr._close(name, t0, calls=0)
                rec[ITEMS] += 1
                yield item

        return wrapper

    def _accept(self, name, fn, owner):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            raw_before = tr.raw_entries
            t0 = tr._open()
            try:
                accepted = fn(*args, **kwargs)
            finally:
                rec = tr._close(name, t0)
            rec[ITEMS] += bool(accepted)
            if tr.raw_entries == raw_before:
                tr._entry("search.accept.refine_only")[COUNT] += 1
            return accepted

        return wrapper

    def _levels(self, name, fn, owner):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if tr.pool_start is not None:
                    tr.pool_end = perf_counter()

        return wrapper

    def _pool_start(self, name, fn, owner):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.pool_start = perf_counter()
            return fn(*args, **kwargs)

        return wrapper

    def _task(self, name, fn, owner):
        """Runs in a pool worker: a fresh table per task, sent back as
        one appended line."""
        tr = self

        @functools.wraps(fn)
        def wrapper(task_args):
            tr.table, tr.stack, tr.modes = {}, [0.0], []
            t0 = perf_counter()
            try:
                return fn(task_args)
            finally:
                line = json.dumps({"task": [t0, perf_counter(), os.getpid()], "table": tr.table})
                os.write(tr._fd, (line + "\n").encode())

        return wrapper

    # -- install / collect -------------------------------------------------------

    def install(self) -> None:
        self._fd = os.memfd_create("perfbench-trace")
        fcntl.fcntl(self._fd, fcntl.F_SETFL, fcntl.fcntl(self._fd, fcntl.F_GETFL) | os.O_APPEND)
        makers = {
            "canon": self._canon,
            "generator": self._generator,
            "accept": self._accept,
            "span": self._span,
            "search_span": self._span,
            "levels": self._levels,
            "pool_start": self._pool_start,
            "task": self._task,
        }
        for name, module, attr, kind in SPECS:
            for owner, binding in _bindings(module, attr, kind == "search_span"):
                original = vars(owner)[binding]
                self._patches.append((owner, binding, original))
                setattr(owner, binding, makers[kind](name, original, owner))

    def uninstall(self) -> None:
        """Restore every wrapped name and merge what pool tasks sent."""
        for owner, binding, original in reversed(self._patches):
            setattr(owner, binding, original)
        self._patches.clear()
        os.lseek(self._fd, 0, os.SEEK_SET)
        chunks = []
        while True:
            chunk = os.read(self._fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(self._fd)
        self._fd = None
        for line in b"".join(chunks).decode().splitlines():
            rec = json.loads(line)
            self.tasks.append(tuple(rec["task"]))
            for name, values in rec["table"].items():
                mine = self._entry(name)
                for i, v in enumerate(values):
                    mine[i] += v

    # -- per-layer metrics ----------------------------------------------------------

    def metrics(self, pool_size: int) -> dict[str, tuple[float, str]]:
        def get(name: str) -> list:
            return self.table.get(name, [0, 0.0, 0, 0.0])

        out: dict[str, tuple[float, str]] = {}
        for fn in ("refine_colors", "canon_raw"):
            total_calls = total_self = 0
            for mode in ("search", "oneshot"):
                rec = get(f"canon.{fn}.{mode}")
                out[f"canon.{fn}.{mode}.calls"] = (rec[COUNT], "count")
                out[f"canon.{fn}.{mode}.self_s"] = (rec[SELF], "s")
                total_calls += rec[COUNT]
                total_self += rec[SELF]
            out[f"canon.{fn}.calls"] = (total_calls, "count")
            out[f"canon.{fn}.self_s"] = (total_self, "s")

        reps = get("search.subset_reps")
        out["search.subset_reps.yielded"] = (reps[ITEMS], "count")
        out["search.subset_reps.self_s"] = (reps[SELF], "s")
        expand = get("search.expand")
        out["search.expand.calls"] = (expand[COUNT], "count")
        out["search.expand.self_s"] = (expand[SELF], "s")
        accept = get("search.accept")
        calls = accept[COUNT]
        out["search.accept.calls"] = (calls, "count")
        out["search.accept.accepted"] = (accept[ITEMS], "count")
        out["search.accept.self_s"] = (accept[SELF], "s")
        out["search.accept_rate"] = (accept[ITEMS] / calls if calls else 0.0, "ratio")
        refine_only = get("search.accept.refine_only")[COUNT]
        out["search.accept.refine_only_frac"] = (refine_only / calls if calls else 0.0, "ratio")

        durations = [end - start for start, end, _ in self.tasks]
        out["search.pool.tasks"] = (len(self.tasks), "count")
        out["search.pool.task_median_s"] = (statistics.median(durations) if durations else 0.0, "s")
        out["search.pool.task_max_s"] = (max(durations, default=0.0), "s")
        if self.tasks:
            wait = sum(start - self.pool_start for start, _, _ in self.tasks)
            busy = sum(durations) / (pool_size * (self.pool_end - self.pool_start))
        else:
            wait = busy = 0.0
        out["search.pool.wait_s"] = (wait, "s")
        out["search.pool.busy_frac"] = (busy, "ratio")
        out["search.finalize_s"] = (get("search.finalize")[TOTAL], "s")

        for name in (
            "cliques.has_clique", "cliques.count_of_size", "cliques.is_detachable",
            "cliques.border_profile", "cliques.size_counts",
            "cliques.per_vertex_size_counts", "cliques.max_clique",
            "graphs.graph6_decode", "graphs.graph6_encode", "graphs.graph_init",
            "bounds.upper_bound", "bounds.lower_bound", "bounds.exact_value",
            "bounds.turan_graph", "bounds.turan_clique_count",
        ):
            rec = get(name)
            out[f"{name}.calls"] = (rec[COUNT], "count")
            out[f"{name}.self_s"] = (rec[SELF], "s")
        out["cli.main.self_s"] = (get("cli.main")[SELF], "s")
        return out
