"""Benchmark of the cdt library: three workloads, end-to-end metrics, and
a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload enumerate|extremal|local|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the library from `src/`
there and exits with code 2, printing no result, if that is missing.
It prints one line per metric, a provenance line, and last a JSON
object {"correct", "attempted", "failed", "metrics"}.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PER_PASS = 2
IMPORT_PROBE = "import time; t = time.perf_counter(); import cdt; print(time.perf_counter() - t)"


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _import_seconds() -> float:
    """Time of `import cdt` in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def _provenance(name: str, workload, args, samples: dict, load_start) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "cdt").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "workload": name,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "samples": samples,
    }


def _checked(workload, result, tally) -> None:
    for name, ok in workload.check(result.output):
        tally[0] += 1
        if not ok:
            tally[1] += 1
            print(f"FAILED check: {name}", file=sys.stderr)


def _children_maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_workload(name: str, args):
    from workloads import WORKLOADS

    load_start = list(os.getloadavg())
    tally = [0, 0]  # checks attempted, failed

    if args.trace:
        from spans import Tracer

        workload = WORKLOADS[name](args.seed)
        plain = workload.run()
        _checked(workload, plain, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run()
        finally:
            tracer.uninstall()
        _checked(workload, traced, tally)
        metrics = tracer.metrics(getattr(workload, "workers", 1))
        metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
        samples = {k: 1 for k in metrics}
        passes = [plain.wall, traced.wall]
    else:
        # A serial pass runs on one CPU, and on a shared host one CPU can
        # be 30% slower than another for minutes.  Rotating serial passes
        # over the allowed CPUs keeps a run from depending on where the
        # scheduler happened to place it.  The set-up is repeated around
        # every pass, so its median, like the passes', spans the run
        # rather than the host's state in its first second.
        cpus = sorted(os.sched_getaffinity(0))
        imports, builds, passes, latencies = [], [], [], []
        pool_rss = 0  # largest peak of a pool worker, in KiB
        start = perf_counter()
        try:
            while True:
                for _ in range(SETUP_PER_PASS):
                    t0 = perf_counter()
                    workload = WORKLOADS[name](args.seed)
                    builds.append(perf_counter() - t0)
                if getattr(workload, "workers", 1) == 1:
                    os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
                # The children's peak is the largest of any child so far.
                # The first pass runs before the first import probe, so
                # when it grows during a pass, a pool worker made it grow.
                before = _children_maxrss()
                result = workload.run()
                if _children_maxrss() > before:
                    pool_rss = _children_maxrss()
                _checked(workload, result, tally)
                passes.append(result.wall)
                latencies.append(result.latencies)
                # About one import probe per second of pass, so a run
                # holds about as many probes as it lasts seconds, however
                # long its passes are.
                for _ in range(max(SETUP_PER_PASS, round(result.wall))):
                    imports.append(_import_seconds())
                if perf_counter() - start + _median(passes) > args.seconds:
                    break
        finally:
            os.sched_setaffinity(0, cpus)
        wall = _median(passes)
        # Every pass times the same graphs in the same order, so each
        # graph's latency is its mean over passes.  The host runs in fast
        # and slow spells (the slowest graph takes ~100 or ~160 ms), and a
        # run may fall wholly in one.  A median or a best time over passes
        # jumps between the two speeds as the share of slow passes crosses
        # its level; the mean moves with that share.  Over 10 seeds on
        # `local` the p99 spread by 0.12 (interquartile range / median)
        # with means, 0.17 with medians, and best times spread by 0.05 in
        # that set but by 0.46 in one where three runs were slow throughout.
        per_graph = [statistics.fmean(times) for times in zip(*latencies)]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool_rss
        metrics = {
            "wall_s": (wall, "s"),
            "classes_per_s": (workload.classes / wall, "1/s"),
            "graphs_per_s": (workload.graphs / wall, "1/s"),
            "graph_p50_ms": (_median(per_graph) * 1e3, "ms"),
            "graph_p99_ms": (_percentile(per_graph, 99) * 1e3, "ms"),
            "setup_s": (_median(imports) + _median(builds), "s"),
            "peak_rss_mb": (rss / 1024, "MB"),
        }
        samples = {k: len(passes) for k in metrics}
        samples.update(setup_s=len(imports), peak_rss_mb=1)
        samples["graphs_timed"] = len(per_graph)
    provenance = _provenance(name, workload, args, samples, load_start)
    provenance["pass_s"] = passes
    provenance["fail_frac"] = tally[1] / tally[0] if tally[0] else None
    return tally, metrics, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["enumerate", "extremal", "local", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdt" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'cdt'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cdt

    if Path(cdt.__file__).resolve().parent != (SRC / "cdt").resolve():
        print(f"error: imported cdt from {cdt.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    names = ["enumerate", "extremal", "local"] if args.workload == "all" else [args.workload]
    total = [0, 0]
    merged = {}
    for name in names:
        tally, metrics, provenance = run_workload(name, args)
        total[0] += tally[0]
        total[1] += tally[1]
        for metric, (value, unit) in metrics.items():
            print(f"{name:10s} {metric:40s} {value:>16.6f} {unit:6s} n={provenance['samples'][metric]}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            merged[key] = {"value": value, "unit": unit}
        print(f"{name:10s} fail_frac {provenance['fail_frac']} ({tally[1]} of {tally[0]} checks failed)")
        print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": total[1] == 0,
        "attempted": total[0],
        "failed": total[1],
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
