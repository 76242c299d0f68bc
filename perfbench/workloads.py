"""The three benchmark workloads.

Each workload is built from the seed in its constructor (the set-up that
`setup_s` times), runs one pass of its work in `run()` (the timed
region), and checks a pass's outputs in `check()` outside the timed
region.  `check()` returns (name, ok) pairs; none of them depends on
vertex labels, so a change to canonical labelling that renames
representatives still passes.

Every call into the library goes through a module attribute
(`search.best_up_to`, `cliques.border_profile`, ...) looked up at call
time, so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import jsonschema

from cdt import bounds, canon, cli, cliques, graphs, search

from corpus import (
    build_corpus,
    clique_profile,
    g6_decode,
    isomorphic,
    level_digests,
)

# Unconstrained classes per vertex count 1..8 (OEIS A000088) and the
# order-insensitive invariant digest of each level (corpus.level_digests).
ENUM_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
ENUM_DIGESTS = {
    1: "75be4089efeaff4e", 2: "861dc6dc4a4ae933", 3: "ad1a75acf9f2260b",
    4: "487d917878035d32", 5: "d9da4750c506e269", 6: "bd05da5293100e2e",
    7: "73fc3122b526c37c", 8: "0ad046f6857f89f8",
}

# Degree <= 5, clique <= 3, triangles: classes and exact maximum density
# per vertex count 1..8; the optimum 15/8 at n = 8 is bt_graph(2).
EXTREMAL_COUNTS = (1, 2, 4, 10, 29, 120, 647, 5325)
EXTREMAL_MAXIMA = tuple(
    Fraction(x) for x in ("0", "0", "1/3", "1/2", "4/5", "4/3", "12/7", "15/8")
)

T = 3  # clique size of the `local` density and weight calls
DETACH_T = (3, 4)


@dataclass
class Pass:
    wall: float  # seconds for the whole pass
    latencies: list[float]  # seconds per graph
    output: object


class Enumerate:
    """All graphs on <= n_max vertices, streamed to a visitor, serial."""

    seeded = False

    def __init__(self, seed: int, n_max: int = 8):
        self.n_max = n_max
        self.classes = self.graphs = sum(ENUM_COUNTS[:n_max])

    def run(self) -> Pass:
        found = []
        gaps = []
        last = perf_counter()

        def visit(g) -> None:
            nonlocal last
            now = perf_counter()
            gaps.append(now - last)
            last = now
            found.append((g.n, g.adj))

        t0 = last = perf_counter()
        count = search.enumerate_all_up_to(self.n_max, self.n_max, self.n_max + 1, visit)
        return Pass(perf_counter() - t0, gaps, (count, found))

    def check(self, output) -> list[tuple[str, bool]]:
        count, found = output
        per_level = [0] * self.n_max
        for n, _ in found:
            per_level[n - 1] += 1
        digests = level_digests(found)
        out = [("returned count", count == self.classes)]
        for n in range(1, self.n_max + 1):
            out.append((f"classes at n={n}", per_level[n - 1] == ENUM_COUNTS[n - 1]))
            out.append((f"invariant digest at n={n}", digests.get(n) == ENUM_DIGESTS[n]))
        return out


class Extremal:
    """The paper's headline instance: maxima of the triangle density
    with degree <= 5 and clique <= 3, forked over `workers` processes."""

    seeded = False

    def __init__(self, seed: int, n_max: int = 8, workers: int = 2):
        self.n_max = n_max
        self.workers = workers
        self.classes = self.graphs = sum(EXTREMAL_COUNTS[:n_max])
        bt2 = bounds.bt_graph(2)
        self.bt2 = (bt2.n, bt2.adj)

    def run(self) -> Pass:
        t0 = perf_counter()
        report = search.best_up_to(self.n_max, 5, 3, 3, thread_count=self.workers)
        wall = perf_counter() - t0
        # no per-class delivery: every class costs the pass time amortised
        return Pass(wall, [wall / self.classes], report)

    def check(self, report) -> list[tuple[str, bool]]:
        levels = {lv.n: lv for lv in report.levels}
        out = [("levels reported", sorted(levels) == list(range(1, self.n_max + 1)))]
        for n in range(1, self.n_max + 1):
            lv = levels.get(n)
            out.append((f"classes at n={n}", lv is not None and lv.graphs_enumerated == EXTREMAL_COUNTS[n - 1]))
            out.append((f"maximum at n={n}", lv is not None and lv.max_density == EXTREMAL_MAXIMA[n - 1]))
        if self.n_max >= 8:
            wits = levels[8].witnesses if 8 in levels else ()
            ok = len(wits) == 1
            if ok:
                n, adj = g6_decode(wits[0])
                ok = n == 8 and isomorphic(8, adj, self.bt2[1]) and clique_profile(n, adj)[3] == 15
            out.append(("n=8 witness is bt_graph(2)", ok))
        return out


class Local:
    """Per-graph analysis of a seeded corpus, as `cdt analyze` does it,
    plus border and detachability calls and one in-process CLI pass."""

    seeded = True

    def __init__(self, seed: int):
        def raw(g):
            return (g.n, g.adj)

        self.corpus = build_corpus(seed, raw(bounds.bt_graph(2)), raw(bounds.bt_graph(3)), raw(bounds.g_star()))
        self.stdin_text = "".join(e["g6"] + "\n" for e in self.corpus)
        self.classes = len({e["group"] for e in self.corpus})
        self.graphs = len(self.corpus)
        schema_path = Path(cli.__file__).parent / "schemas" / "report.schema.json"
        self.schema = json.loads(schema_path.read_text())
        self._profiles = None

    @staticmethod
    def _analyze(entry: dict) -> dict:
        g = graphs.graph6_decode(entry["g6"])
        profile = cliques.clique_size_counts(g)
        weights = cliques.per_vertex_clique_counts(g)
        omega = cliques.clique_number(g)
        dmax = graphs.max_degree(g)
        detach = []
        for subset in entry["subsets"]:
            border = cliques.border_profile(g, subset, dmax)
            for t in DETACH_T:
                detach.append((cliques.detach_sufficient(border, t), cliques.is_detachable(g, subset, t)))
        return {
            "profile": profile,
            "weights": [w[T] for w in weights],
            "density": cliques.density(g, T),
            "upper": bounds.upper_bound(T, dmax, omega),
            "canonical": canon.canonical_form(g),
            "perfect": [v for v in range(g.n) if cliques.is_perfect_vertex(g, v, dmax, omega)],
            "detach": detach,
        }

    def _cli(self) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), _stdin(io.StringIO(self.stdin_text)):
            code = cli.main(["analyze", "-t", str(T), "--json"])
        return code, stdout.getvalue()

    def run(self) -> Pass:
        results = []
        latencies = []
        t0 = perf_counter()
        for entry in self.corpus:
            s = perf_counter()
            results.append(self._analyze(entry))
            latencies.append(perf_counter() - s)
        doc = self._cli()
        return Pass(perf_counter() - t0, latencies, (results, doc))

    def check(self, output) -> list[tuple[str, bool]]:
        results, (code, text) = output
        if self._profiles is None:
            self._profiles = [clique_profile(*g6_decode(e["g6"])) for e in self.corpus]
        out = []
        for i, (res, profile) in enumerate(zip(results, self._profiles)):
            out.append((f"graph {i}: clique profile", res["profile"] == profile))
            out.append((f"graph {i}: weights sum to {T} k_{T}", sum(res["weights"]) == T * profile[T]))
            out.append((f"graph {i}: density <= upper_bound", res["density"] <= res["upper"]))
            for j, (sufficient, detachable) in enumerate(res["detach"]):
                out.append((f"graph {i}: detach_sufficient => is_detachable #{j}", detachable or not sufficient))
        groups: dict[int, set] = {}
        for entry, res in zip(self.corpus, results):
            key = (res["canonical"], tuple(sorted(res["weights"])), len(res["perfect"]))
            groups.setdefault(entry["group"], set()).add(key)
        for group, keys in groups.items():
            out.append((f"class {group}: canonical form, weights and perfect vertices under relabelling",
                        len(keys) == 1))
        try:
            doc = json.loads(text)
            jsonschema.validate(doc, self.schema)
            rows = doc["outputs"]["graphs"]
            ok = code == 0 and [r["clique_count"] for r in rows] == [p[T] for p in self._profiles]
        except (ValueError, KeyError, TypeError, jsonschema.ValidationError):
            ok = False
        out.append(("cli analyze --json: schema and clique counts", ok))
        return out


@contextlib.contextmanager
def _stdin(stream):
    saved = sys.stdin
    sys.stdin = stream
    try:
        yield
    finally:
        sys.stdin = saved


WORKLOADS = {"enumerate": Enumerate, "extremal": Extremal, "local": Local}
