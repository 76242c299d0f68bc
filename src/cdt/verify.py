"""The lemma checks, stacked on one isomorph-free pass over every graph
on at most n_max vertices.  ``cdt verify lemmas|zykov|superadd`` sweep to
n <= 7 and acceptance criterion 9 to n <= 9.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import cliques
from .bounds import turan_clique_count, turan_graph
from .canon import canonical_form
from .cliques import _per_vertex_size_counts, _size_counts, find_configurations
from .graphs import Graph, bits, induced, union
from .search import _turan_maximizes, enumerate_all_up_to

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


def _g6(g: Graph) -> str:
    return canonical_form(g).decode("ascii")


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
            self.handshake_bad.append(_g6(g))

        max_w = [max(w[t] for w in weights) for t in range(n + 1)]

        pairs = [(d, w) for d, w in CEILING_PAIRS if dmax_g <= d and omega_g <= w]
        self.covered["ceiling"] += bool(pairs)
        for d, wbound in pairs:
            ceil = self.ceilings[(d, wbound)]
            if any(max_w[t] > ceil[t] for t in range(2, n + 1)):
                self.ceiling_bad.append(_g6(g))
            # attaining the ceiling at a size with room forces the
            # extremal neighborhood
            for t in range(3, min(n, wbound) + 1):
                if ceil[t] == 0:
                    continue
                for v in range(n):
                    if weights[v][t] == ceil[t]:
                        nb = canonical_form(induced(g, adj[v]))
                        if nb != self.turan_nbhd_form[(d, wbound)]:
                            self.equality_without_turan_neighborhood.append(_g6(g))

        # every heavy vertex has a light neighbor (degree 5 / clique 4)
        if n >= 3 and dmax_g <= 5 and omega_g <= 4:
            self.covered["heavy-neighbour"] += 1
            for v in range(n):
                if weights[v][3] == 7 and not any(weights[x][3] <= 5 for x in bits(adj[v])):
                    self.seven_neighbor_bad.append(_g6(g))

        # configurations are pairwise disjoint in the degree-r clique-r class
        rs = [r for r in (6, 7) if dmax_g <= r and omega_g <= r and n >= r + 1]
        self.covered["configurations"] += bool(rs)
        for r in rs:
            cfgs = find_configurations(g, r)
            if any(a.vertices & b.vertices for a, b in combinations(cfgs, 2)):
                self.config_overlap_bad.append(_g6(g))

        if n > SUBSET_CAP:
            return

        # detachability sufficiency soundness, exhaustive over subsets
        self.covered["detachability"] += 1
        for subset in range(1, full + 1):
            prof = cliques.border_profile(g, subset, dmax_g)
            if any(cliques.detach_sufficient(prof, t) and not cliques.is_detachable(g, subset, t)
                   for t in range(2, n + 1)):
                self.detach_bad.append(_g6(g))
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
                zykov_bad.extend(sorted(_g6(Graph(n, adj)) for adj in wits))

        # a union of maximizers at x and y is in the class, so the
        # maximum at x + y is at least the sum
        superadd_bad: list[str] = []
        wit = self.superadd_witness
        for case, table in self.superadd.items():
            top = max(table)
            for x in range(1, top):
                for y in range(x, top - x + 1):
                    if table[x + y] < table[x] + table[y]:
                        superadd_bad.append(_g6(union(Graph(x, wit[case, x]), Graph(y, wit[case, y]))))

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
