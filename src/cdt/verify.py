"""Verification suites for ``cdt verify``: the Turan formulas, Zykov's
theorem and the paper's local lemmas, checked by exhaustion.

`SUITES` is the one suite table and `suite_rows` yields its `Check`
rows; each row names its scope, the graphs it covered and its failing
entries, each once.  ``lemmas``, ``zykov`` and ``superadd`` are rows of
one `Sweep`, one isomorph-free pass over every graph on at most n_max
vertices (7 here, 9 in acceptance criterion 9).  The neighbourhood
classifications run on one pass to r+2 vertices and give one row per
lemma and r, each covering the graph sizes it scans; ``neighborhoods``
merges them into one row.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import cliques
from .bounds import rho_monotone_check, turan_clique_count, turan_graph
from .canon import canonical_form
from .cliques import _is_perfect, _per_vertex_size_counts, _size_counts, clique_size_counts
from .cliques import find_configurations, vertex_cover_count
from .graphs import Graph, bits, build_graph, complement, complete_graph, empty_graph, path_graph, union
from .search import enumerate_all_up_to

CEILING_PAIRS = ((5, 3), (5, 4), (6, 5), (6, 6))
SUPERADD_CASES = ((4, 4, 3), (5, 3, 3), (5, 4, 3), (6, 5, 3))
# the per-subset detachability scan and the per-class maxima stop here:
# beyond it they cost more than the rest of the sweep together
SUBSET_CAP = 8

# Sweep row key -> row name; the lemma rows are decided graph by graph
LEMMA_CHECKS = {
    "handshake": "handshake identity",
    "ceiling": "per-vertex clique ceilings",
    "equality": "ceiling attained only with a Turan neighbourhood",
    "heavy-neighbour": "heavy degree-5 clique-4 vertices have a light neighbour",
    "configurations": "degree-r clique-r configurations pairwise disjoint",
    "detachability": "detachability sufficiency soundness",
}
SWEEP_CHECKS = {**LEMMA_CHECKS, "zykov": "bounded-clique maximizer & uniqueness",
                "superadd": "superadditivity of max clique counts"}


class Check(NamedTuple):
    """One row of a suite."""
    name: str
    scope: str  # the range the check ran over, e.g. "n <= 7"
    failures: list[str]  # distinct; canonical graph6 unless the suite says otherwise
    covered: int  # graphs the check was applied to

    @property
    def ok(self) -> bool:
        return not self.failures


def _turan_maximizes(n: int, omega: int, t: int, best: int, wits: list) -> bool:
    """Is ``best`` the t-clique count of T(n, omega), attained by the
    Turan graph alone whenever it is nonzero?"""
    expected = turan_clique_count(n, omega, t)
    if best != expected or expected == 0:
        return best == expected
    forms = sorted(canonical_form(Graph(n, adj)) for adj in wits)
    return forms == [canonical_form(turan_graph(n, omega))]


class Sweep:
    """Stacked checks over one isomorph-free pass of all graphs n <= n_max."""

    def __init__(self, n_max: int = 9):
        self.n_max = n_max
        self.graphs_seen = 0
        # lemma key -> canonical graph6 of the graphs that break it, each once
        self.bad: dict[str, list[str]] = {key: [] for key in LEMMA_CHECKS}
        # (n, omega, t) -> [max count, maximizer adjacency tuples]; the
        # maximizers are kept only where T(n, omega) has a t-clique
        # (t <= min(n, omega)), the one case `_turan_maximizes` reads them
        self.zykov: dict = {}
        # (dmax, omega, t) -> {n: max count}, and one maximizer per (case, n)
        self.superadd: dict = {case: {} for case in SUPERADD_CASES}
        self.superadd_witness: dict = {}
        self.covered = dict.fromkeys(SWEEP_CHECKS, 0)  # handshake and equality are set by checks()
        self.ceilings = {
            (d, w): [turan_clique_count(d, w - 1, t - 1) if t >= 1 else 0 for t in range(n_max + 1)]
            for d, w in CEILING_PAIRS
        }

    def run(self) -> "Sweep":
        enumerate_all_up_to(self.n_max, self.n_max, self.n_max + 1, self.visit)
        return self

    def _fail(self, key: str, g: Graph) -> None:
        """Record g against a lemma once; visits are isomorph-free, so a repeat is the last entry."""
        form = canonical_form(g)
        if self.bad[key][-1:] != [form]:
            self.bad[key].append(form)

    def visit(self, g: Graph) -> None:
        self.graphs_seen += 1
        n = g.n
        adj = g.adj
        full = g.vertex_mask()
        counts = _size_counts(adj, full)
        weights = _per_vertex_size_counts(n, adj)
        omega_g = max(t for t in range(n + 1) if counts[t])
        dmax_g = max((row.bit_count() for row in adj), default=0)

        # handshake: vertex weights sum to t times the clique count
        if any(sum(w[t] for w in weights) != t * counts[t] for t in range(1, n + 1)):
            self._fail("handshake", g)

        max_w = [max(w[t] for w in weights) for t in range(n + 1)]

        pairs = [(d, w) for d, w in CEILING_PAIRS if dmax_g <= d and omega_g <= w]
        self.covered["ceiling"] += bool(pairs)
        for d, wbound in pairs:
            ceil = self.ceilings[(d, wbound)]
            if any(max_w[t] > ceil[t] for t in range(2, n + 1)):
                self._fail("ceiling", g)
            # attaining the ceiling at a size with room forces the
            # Turan neighborhood T(d, wbound - 1)
            for t in range(3, min(n, wbound) + 1):
                if ceil[t] == 0:
                    continue
                for v in range(n):
                    if weights[v][t] == ceil[t] and not _is_perfect(adj, v, d, wbound - 1):
                        self._fail("equality", g)

        # every heavy vertex has a light neighbor (degree 5 / clique 4)
        if n >= 3 and dmax_g <= 5 and omega_g <= 4:
            self.covered["heavy-neighbour"] += 1
            for v in range(n):
                if weights[v][3] == 7 and not any(weights[x][3] <= 5 for x in bits(adj[v])):
                    self._fail("heavy-neighbour", g)

        # configurations are pairwise disjoint in the degree-r clique-r class
        rs = [r for r in (6, 7) if dmax_g <= r and omega_g <= r and n >= r + 1]
        self.covered["configurations"] += bool(rs)
        for r in rs:
            cfgs = find_configurations(g, r)
            if any(a.vertices & b.vertices for a, b in combinations(cfgs, 2)):
                self._fail("configurations", g)

        if n > SUBSET_CAP:
            return

        # detachability sufficiency soundness, exhaustive over subsets
        self.covered["detachability"] += 1
        # detach_sufficient(prof, t) holds exactly for t > i + j, and a
        # (t+1)-clique across the cut contains a t-clique across it, so
        # is_detachable is monotone in t: the smallest sufficient t decides
        for subset in range(1, full + 1):
            prof = cliques.border_profile(g, subset, dmax_g)
            t0 = max(2, prof.border_clique_number + prof.max_cross + 1)
            if t0 <= n and not cliques.is_detachable(g, subset, t0):
                self._fail("detachability", g)
                break

        # per-class maxima for the Turan-maximizer and superadditivity gates
        self.covered["zykov"] += omega_g <= 4
        for wbound in range(omega_g, 5):
            for t in range(2, 5):
                key = (n, wbound, t)
                kt = counts[t] if t <= n else 0
                wits = [adj] if t <= min(n, wbound) else []
                cur = self.zykov.get(key)
                if cur is None or kt > cur[0]:
                    self.zykov[key] = [kt, wits]
                elif kt == cur[0]:
                    cur[1].extend(wits)
        cases = [c for c in SUPERADD_CASES if dmax_g <= c[0] and omega_g <= c[1]]
        self.covered["superadd"] += bool(cases)
        for case in cases:
            kt = counts[case[2]] if case[2] <= n else 0
            table = self.superadd[case]
            if kt > table.get(n, -1):
                table[n] = kt
                self.superadd_witness[case, n] = adj

    def checks(self) -> dict[str, Check]:
        """Every row of the sweep by key, in `SWEEP_CHECKS` order."""
        zykov_bad: list[str] = []
        for (n, omega, t), (best, wits) in sorted(self.zykov.items()):
            if not _turan_maximizes(n, omega, t, best, wits):
                # a key without stored maximizers is named by itself
                forms = sorted(canonical_form(Graph(n, adj)) for adj in wits)
                zykov_bad.extend(forms or [f"n={n},omega={omega},t={t}"])

        # a union of maximizers at x and y is in the class, so the
        # maximum at x + y is at least the sum
        superadd_bad: list[str] = []
        wit = self.superadd_witness
        for case, table in self.superadd.items():
            top = max(table)
            for x in range(1, top):
                for y in range(x, top - x + 1):
                    if table[x + y] < table[x] + table[y]:
                        superadd_bad.append(canonical_form(union(Graph(x, wit[case, x]), Graph(y, wit[case, y]))))

        # a graph can fail several tables: list it once
        bad = dict(self.bad, zykov=list(dict.fromkeys(zykov_bad)), superadd=list(dict.fromkeys(superadd_bad)))
        covered = dict(self.covered, handshake=self.graphs_seen, equality=self.covered["ceiling"])
        scope = f"n <= {self.n_max}"
        return {key: Check(name, scope, bad[key], covered[key]) for key, name in SWEEP_CHECKS.items()}


# -- neighbourhood classifications ---------------------------------------------

_TRIANGLE = ((0, 1), (0, 2), (1, 2))
_PATH4 = ((0, 1), (1, 2), (2, 3))


def verify_neighborhood_lemmas(r_values: Sequence[int]) -> list[Check]:
    """Reproduce the near-extremal neighborhood classifications by
    exhaustion.

    For each r: graphs on <= r+2 vertices with clique number <= r and
    exactly three r-cliques are K_{r+2} minus a triangle or minus a
    4-path; the complement statements count vertex covers (exactly 3 of
    size 2 and none of size <= 1, or a size-3 window on r+1 vertices);
    and for r >= 5 the analogous window on k_{r-2} pins graphs on
    <= r+1 vertices to K_{r+1} minus a triangle or minus a 4-path.

    One row per (lemma, r), in that order.  Its scope names r and the
    vertex counts the lemma scans, it covers the graphs of those sizes,
    and its failures are the graphs found or expected but not both.

    One pass over every graph on at most max(r_values) + 2 vertices
    serves every r: the degree and clique bounds r+1 and r+2 exclude
    nothing on that many vertices.
    """
    if any(r < 3 for r in r_values):
        raise ValueError("classification needs r >= 3")
    windows = {r: (Fraction(4 * r - 16) + Fraction(36, r + 2), 4 * r - 8) for r in r_values if r >= 5}
    per_n: Counter[int] = Counter()  # graphs scanned, by vertex count
    three_max: dict[int, list[str]] = {r: [] for r in r_values}
    covers: list[tuple[int, str]] = []  # (n, graph6); the predicate does not depend on r
    cover_window: dict[int, list[str]] = {r: [] for r in windows}
    near_max: dict[int, list[str]] = {r: [] for r in windows}

    def visit(g: Graph) -> None:
        n = g.n
        per_n[n] += 1
        counts = _size_counts(g.adj, g.vertex_mask())
        omega_g = max(t for t in range(n + 1) if counts[t])
        # exactly three covers of size two and none smaller
        if vertex_cover_count(g, 0) == 0 and vertex_cover_count(g, 1) == 0 and vertex_cover_count(g, 2) == 3:
            covers.append((n, canonical_form(g)))
        for r in three_max:
            if r <= n <= r + 2 and counts[r] == 3 and omega_g <= r:
                three_max[r].append(canonical_form(g))
        for r, (lo, hi) in windows.items():
            if n > r + 1:
                continue
            if n == r + 1 and vertex_cover_count(g, 1) == 0 and lo <= vertex_cover_count(g, 3) < hi:
                cover_window[r].append(canonical_form(g))
            kr2 = counts[r - 2] if r - 2 <= n else 0
            if omega_g <= r - 1 and lo <= kr2 < hi:
                near_max[r].append(canonical_form(g))

    r_top = max(r_values, default=0)
    if r_values:
        enumerate_all_up_to(r_top + 2, r_top + 1, r_top + 2, visit)

    def row(name: str, r: int, ns: range, found: list[str], expected: Iterable[Graph]) -> Check:
        """The lemma holds exactly when found and expected agree as multisets."""
        have, want = Counter(found), Counter(canonical_form(h) for h in expected)
        sizes = f"{ns[0]}..{ns[-1]}" if len(ns) > 1 else f"{ns[0]}"
        return Check(name, f"r = {r}, n = {sizes}", sorted((have - want) | (want - have)),
                     sum(per_n[n] for n in ns))

    rows = []
    for r in r_values:
        pair = [complement(build_graph(r + 2, edges)) for edges in (_TRIANGLE, _PATH4)]
        rows.append(row("three-max-cliques", r, range(r, r + 3), three_max[r], pair))

        graphs = [union(complete_graph(3), empty_graph(m - 3)) for m in range(3, r + 3)]
        graphs += [union(path_graph(4), empty_graph(m - 4)) for m in range(4, r + 3)]
        found = [g6 for n, g6 in covers if n <= r + 2]
        rows.append(row("three-covers-of-size-two", r, range(1, r + 3), found, graphs))

        if r >= 5:
            pair = [union(complete_graph(3), empty_graph(r - 2)), union(path_graph(4), empty_graph(r - 3))]
            rows.append(row("cover-window", r, range(r + 1, r + 2), cover_window[r], pair))

            pair = [complement(build_graph(r + 1, edges)) for edges in (_TRIANGLE, _PATH4)]
            rows.append(row("near-max-weight-window", r, range(1, r + 2), near_max[r], pair))
    return rows


# -- the suite table -------------------------------------------------------------

FORMULA_N = 9
MONOTONE_N = 120
MONOTONE_OMEGA = 8
SWEEP_N = 7
NEIGHBORHOOD_RS = (3, 4, 5, 6)


def _formulas() -> Check:
    turan = [(n, r, turan_graph(n, r)) for n in range(1, FORMULA_N + 1) for r in range(1, n + 1)]
    bad = [canonical_form(g) for n, r, g in turan
           if clique_size_counts(g) != [turan_clique_count(n, r, t) for t in range(n + 1)]]
    return Check("turan closed form vs direct count", f"n <= {FORMULA_N}", bad, len(turan))


def _monotone() -> Check:
    omegas = range(2, MONOTONE_OMEGA + 1)
    bad = [f"omega={omega},t={t}" for omega in omegas for t in range(2, omega + 1)
           if not rho_monotone_check(omega, t, MONOTONE_N)]
    # the graphs are T(n, omega) for each omega and n <= MONOTONE_N
    scope = f"n <= {MONOTONE_N}, omega <= {MONOTONE_OMEGA}"
    return Check("turan density monotone in n", scope, bad, len(omegas) * MONOTONE_N)


def _neighborhoods() -> Check:
    rows = verify_neighborhood_lemmas(NEIGHBORHOOD_RS)
    bad = dict.fromkeys(g6 for row in rows for g6 in row.failures)
    scope = f"r = {NEIGHBORHOOD_RS[0]}..{NEIGHBORHOOD_RS[-1]}"
    # the covers row of the largest r spans every graph the pass scanned
    return Check("neighborhood classifications", scope, list(bad), max(row.covered for row in rows))


# suite -> the function that builds its row, or the keys of its Sweep rows
SUITES: dict[str, Callable[[], Check] | tuple[str, ...]] = {
    "formulas": _formulas,
    "lemmas": tuple(LEMMA_CHECKS),
    "zykov": ("zykov",),
    "monotone": _monotone,
    "superadd": ("superadd",),
    "neighborhoods": _neighborhoods,
}


def suite_rows(names: Iterable[str]) -> Iterator[Check]:
    """The rows of the named suites, in order.  The Sweep suites share
    one sweep to n <= SWEEP_N, built when the first of them runs."""
    sweep_rows = None
    for name in names:
        suite = SUITES[name]
        if callable(suite):
            yield suite()
            continue
        if sweep_rows is None:
            sweep_rows = Sweep(SWEEP_N).run().checks()
        yield from (sweep_rows[key] for key in suite)
