"""Tests of the benchmark itself: its correctness checks catch a planted
fault, its traced counts are deterministic, and it refuses to run
without the library.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cdt import search  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

DETERMINISTIC = (".calls", ".yielded", ".accepted", "search.accept_rate", "search.accept.refine_only_frac")


def failures(workload, result) -> list[str]:
    return [name for name, ok in workload.check(result.output) if not ok]


def traced_counts(workload) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.run()
    finally:
        tracer.uninstall()
    assert failures(workload, result) == []
    metrics = tracer.metrics(getattr(workload, "workers", 1))
    return {k: v for k, (v, _) in metrics.items() if k.endswith(DETERMINISTIC)}


def test_seed_code_passes_every_check():
    for workload in (workloads.Enumerate(0, n_max=6), workloads.Extremal(0), workloads.Local(7)):
        assert failures(workload, workload.run()) == []


def test_dropped_and_duplicated_class_fails(monkeypatch):
    """Drop one class on 6 vertices and deliver another twice: the level
    counts still match, so only the invariant digest can catch it."""
    real = search.enumerate_all_up_to

    def faulty(n_max, dmax, omega, visitor, cap=None):
        seen = []

        def visit(g):
            if g.n == 6 and len(seen) < 2:
                seen.append(g)
                if len(seen) == 1:
                    return  # dropped
                visitor(g)  # duplicated
            visitor(g)

        return real(n_max, dmax, omega, visit, cap)

    monkeypatch.setattr(search, "enumerate_all_up_to", faulty)
    workload = workloads.Enumerate(0, n_max=6)
    checks = workload.check(workload.run().output)
    failed = [name for name, ok in checks if not ok]
    assert failed == ["invariant digest at n=6"]
    assert len(failed) / len(checks) > 0


def test_traced_counts_repeat():
    for make in (lambda: workloads.Enumerate(0, n_max=7), lambda: workloads.Local(11)):
        first = traced_counts(make())
        assert first == traced_counts(make())
    assert first["cliques.is_detachable.calls"] > 0


def test_enumerate_never_calls_has_clique():
    counts = traced_counts(workloads.Enumerate(0, n_max=7))
    assert counts["cliques.has_clique.calls"] == 0
    assert counts["search.accept.calls"] > 0


def test_extremal_counts_do_not_depend_on_workers():
    serial = traced_counts(workloads.Extremal(0, n_max=7, workers=1))
    forked = traced_counts(workloads.Extremal(0, n_max=7, workers=2))
    assert serial == forked
    assert serial["cliques.has_clique.calls"] > 0
    assert serial["canon.canon_raw.oneshot.calls"] > 0  # witness canonicalisation


def test_pool_tasks_are_traced():
    tracer = Tracer()
    tracer.install()
    try:
        workloads.Extremal(0, n_max=7, workers=2).run()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(2)
    assert metrics["search.pool.tasks"][0] > 0
    assert 0 < metrics["search.pool.busy_frac"][0] <= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
