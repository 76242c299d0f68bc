"""Brute-force verification of the paper's lemmas, each group on one
isomorph-free pass.

`Sweep` stacks the lemma, Turan-maximizer and superadditivity checks on
one pass over every graph on at most n_max vertices: ``cdt verify
lemmas|zykov|superadd`` sweep to n <= 7 and acceptance criterion 9 to
n <= 9.  `verify_neighborhood_lemmas` reproduces the near-extremal
neighbourhood classifications on one pass to r+2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from . import cliques
from .bounds import turan_clique_count, turan_graph
from .canon import canonical_form
from .cliques import _per_vertex_size_counts, _size_counts, find_configurations, vertex_cover_count
from .graphs import Graph, bits, complete_graph, empty_graph, induced, path_graph, union
from .search import enumerate_all_up_to

CEILING_PAIRS = ((5, 3), (5, 4), (6, 5), (6, 6))
SUPERADD_CASES = ((4, 4, 3), (5, 3, 3), (5, 4, 3), (6, 5, 3))
# the per-subset detachability scan and the per-class maxima stop here:
# beyond it they cost more than the rest of the sweep together
SUBSET_CAP = 8


class Check(NamedTuple):
    name: str
    ok: bool
    failures: list[str]  # canonical graph6 of the graphs that break it
    covered: int  # graphs the check was applied to


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
        self.handshake_bad: list[str] = []
        self.ceiling_bad: list[str] = []
        self.equality_without_turan_neighborhood: list[str] = []
        self.seven_neighbor_bad: list[str] = []
        self.config_overlap_bad: list[str] = []
        self.detach_bad: list[str] = []
        # (n, omega, t) -> [max count, list of maximizer adjacency tuples]
        self.zykov: dict = {}
        # (dmax, omega, t) -> {n: max count}, and one maximizer per (case, n)
        self.superadd: dict = {case: {} for case in SUPERADD_CASES}
        self.superadd_witness: dict = {}
        self.covered = dict.fromkeys(
            ("ceiling", "heavy-neighbour", "configurations", "detachability", "zykov", "superadd"), 0
        )
        self.ceilings = {
            (d, w): [turan_clique_count(d, w - 1, t - 1) if t >= 1 else 0 for t in range(n_max + 1)]
            for d, w in CEILING_PAIRS
        }
        self.turan_nbhd_form = {
            (d, w): canonical_form(turan_graph(d, w - 1)) for d, w in CEILING_PAIRS
        }

    def run(self) -> "Sweep":
        enumerate_all_up_to(self.n_max, self.n_max, self.n_max + 1, self.visit)
        return self

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
            self.handshake_bad.append(canonical_form(g))

        max_w = [max(w[t] for w in weights) for t in range(n + 1)]

        pairs = [(d, w) for d, w in CEILING_PAIRS if dmax_g <= d and omega_g <= w]
        self.covered["ceiling"] += bool(pairs)
        for d, wbound in pairs:
            ceil = self.ceilings[(d, wbound)]
            if any(max_w[t] > ceil[t] for t in range(2, n + 1)):
                self.ceiling_bad.append(canonical_form(g))
            # attaining the ceiling at a size with room forces the
            # extremal neighborhood
            for t in range(3, min(n, wbound) + 1):
                if ceil[t] == 0:
                    continue
                for v in range(n):
                    if weights[v][t] == ceil[t]:
                        nb = canonical_form(induced(g, adj[v]))
                        if nb != self.turan_nbhd_form[(d, wbound)]:
                            self.equality_without_turan_neighborhood.append(canonical_form(g))

        # every heavy vertex has a light neighbor (degree 5 / clique 4)
        if n >= 3 and dmax_g <= 5 and omega_g <= 4:
            self.covered["heavy-neighbour"] += 1
            for v in range(n):
                if weights[v][3] == 7 and not any(weights[x][3] <= 5 for x in bits(adj[v])):
                    self.seven_neighbor_bad.append(canonical_form(g))

        # configurations are pairwise disjoint in the degree-r clique-r class
        rs = [r for r in (6, 7) if dmax_g <= r and omega_g <= r and n >= r + 1]
        self.covered["configurations"] += bool(rs)
        for r in rs:
            cfgs = find_configurations(g, r)
            if any(a.vertices & b.vertices for a, b in combinations(cfgs, 2)):
                self.config_overlap_bad.append(canonical_form(g))

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
                self.detach_bad.append(canonical_form(g))
                break

        # per-class maxima for the Turan-maximizer and superadditivity gates
        self.covered["zykov"] += omega_g <= 4
        for wbound in range(omega_g, 5):
            for t in range(2, 5):
                key = (n, wbound, t)
                kt = counts[t] if t <= n else 0
                cur = self.zykov.get(key)
                if cur is None or kt > cur[0]:
                    self.zykov[key] = [kt, [adj]]
                elif kt == cur[0]:
                    cur[1].append(adj)
        cases = [c for c in SUPERADD_CASES if dmax_g <= c[0] and omega_g <= c[1]]
        self.covered["superadd"] += bool(cases)
        for case in cases:
            kt = counts[case[2]] if case[2] <= n else 0
            table = self.superadd[case]
            if kt > table.get(n, -1):
                table[n] = kt
                self.superadd_witness[case, n] = adj

    def checks(self) -> dict[str, Check]:
        """Every check of the sweep by key, with its failing graphs."""
        zykov_bad: list[str] = []
        for (n, omega, t), (best, wits) in sorted(self.zykov.items()):
            if not _turan_maximizes(n, omega, t, best, wits):
                zykov_bad.extend(sorted(canonical_form(Graph(n, adj)) for adj in wits))

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

        cov = self.covered
        rows = (
            ("handshake", "handshake identity", self.handshake_bad, self.graphs_seen),
            ("ceiling", "per-vertex clique ceilings", self.ceiling_bad, cov["ceiling"]),
            ("equality", "ceiling attained only with a Turan neighbourhood",
             self.equality_without_turan_neighborhood, cov["ceiling"]),
            ("heavy-neighbour", "heavy degree-5 clique-4 vertices have a light neighbour",
             self.seven_neighbor_bad, cov["heavy-neighbour"]),
            ("configurations", "degree-r clique-r configurations pairwise disjoint",
             self.config_overlap_bad, cov["configurations"]),
            ("detachability", "detachability sufficiency soundness", self.detach_bad, cov["detachability"]),
            ("zykov", "bounded-clique maximizer & uniqueness", zykov_bad, cov["zykov"]),
            ("superadd", "superadditivity of max clique counts", superadd_bad, cov["superadd"]),
        )
        return {key: Check(name, not bad, bad, covered) for key, name, bad, covered in rows}


# -- neighbourhood classifications ---------------------------------------------

@dataclass
class LemmaCheck:
    name: str
    r: int
    ok: bool
    found: list[str] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)


@dataclass
class LemmaReport:
    checks: list[LemmaCheck]
    graphs_seen: int  # graphs the enumeration pass scanned

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


_TRIANGLE = ((0, 1), (0, 2), (1, 2))
_PATH4 = ((0, 1), (1, 2), (2, 3))


def _complete_minus(m: int, edges) -> Graph:
    adj = list(complete_graph(m).adj)
    for u, v in edges:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(m, adj)


def verify_neighborhood_lemmas(r_values: Sequence[int]) -> LemmaReport:
    """Reproduce the near-extremal neighborhood classifications by
    exhaustion.

    For each r: graphs on <= r+2 vertices with clique number <= r and
    exactly three r-cliques are K_{r+2} minus a triangle or minus a
    4-path; the complement statements count vertex covers (exactly 3 of
    size 2 and none of size <= 1, or a size-3 window on r+1 vertices);
    and for r >= 5 the analogous window on k_{r-2} pins graphs on
    <= r+1 vertices to K_{r+1} minus a triangle or minus a 4-path.

    One pass over every graph on at most max(r_values) + 2 vertices
    serves every r: the degree and clique bounds r+1 and r+2 exclude
    nothing on that many vertices.
    """
    if any(r < 3 for r in r_values):
        raise ValueError("classification needs r >= 3")
    windows = {r: (Fraction(4 * r - 16) + Fraction(36, r + 2), 4 * r - 8) for r in r_values if r >= 5}
    three_max: dict[int, list[str]] = {r: [] for r in r_values}
    covers: list[tuple[int, str]] = []  # (n, graph6); the predicate does not depend on r
    cover_window: dict[int, list[str]] = {r: [] for r in windows}
    near_max: dict[int, list[str]] = {r: [] for r in windows}

    def visit(g: Graph) -> None:
        n = g.n
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
    seen = enumerate_all_up_to(r_top + 2, r_top + 1, r_top + 2, visit) if r_values else 0

    checks: list[LemmaCheck] = []
    for r in r_values:
        found = sorted(three_max[r])
        expected = sorted(canonical_form(_complete_minus(r + 2, edges)) for edges in (_TRIANGLE, _PATH4))
        checks.append(LemmaCheck("three-max-cliques", r, found == expected, found, expected))

        found = [g6 for n, g6 in covers if n <= r + 2]
        expected_set = set()
        for m in range(3, r + 3):
            expected_set.add(canonical_form(union(complete_graph(3), empty_graph(m - 3))))
            if m >= 4:
                expected_set.add(canonical_form(union(path_graph(4), empty_graph(m - 4))))
        ok = set(found) == expected_set and len(found) == len(expected_set)
        checks.append(LemmaCheck("three-covers-of-size-two", r, ok, sorted(found), sorted(expected_set)))

        if r >= 5:
            found = sorted(cover_window[r])
            expected = sorted(
                canonical_form(h)
                for h in (union(complete_graph(3), empty_graph(r - 2)), union(path_graph(4), empty_graph(r - 3)))
            )
            checks.append(LemmaCheck("cover-window", r, found == expected, found, expected))

            found = sorted(near_max[r])
            expected = sorted(canonical_form(_complete_minus(r + 1, edges)) for edges in (_TRIANGLE, _PATH4))
            checks.append(LemmaCheck("near-max-weight-window", r, found == expected, found, expected))
    return LemmaReport(checks, seen)
