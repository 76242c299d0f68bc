"""Search-based probes of questions the paper leaves open: whether
anything beats the best known density of a (t, dmax, omega) triple, and
whether the configuration-average estimate holds at r = 5."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from .bounds import conjectured_value, lower_bound
from .canon import canonical_form
from .cliques import _per_vertex_size_counts, find_configurations
from .graphs import Graph, bits, graph6_decode
from .search import SearchReport, best_up_to, enumerate_all_up_to


class BeatResult(NamedTuple):
    """Per vertex count, the canonical graph6 of the graphs that tie the
    target and of the maximizers that beat it."""
    target: Fraction
    ties: dict[int, tuple[str, ...]]
    beats: dict[int, tuple[str, ...]]
    report: SearchReport


def beat(t: int, dmax: int, omega: int, n_cap: int, thread_count: int = 1) -> BeatResult:
    """Does a graph on at most n_cap vertices, with maximum degree <= dmax
    and clique number <= omega, beat max(lower_bound, conjectured_value)
    in t-clique density?

    One `best_up_to` call pruned at that target.  The per-vertex ceiling
    is at least the target, so the pruning keeps every graph that
    reaches it at any level: `ties` is complete, and `beats` lists each
    level's maximizers.  Each witness is recounted by a subset scan; a
    mismatch raises RuntimeError.
    """
    target = max(lower_bound(t, dmax, omega), conjectured_value(t, dmax, omega) or 0)
    report = best_up_to(n_cap, dmax, omega, t, thread_count=thread_count, prune_target=target)
    ties = {lv.n: lv.witnesses for lv in report.levels if lv.max_density == target}
    beats = {lv.n: lv.witnesses for lv in report.levels if lv.max_density > target}
    for n, witnesses in (ties | beats).items():
        for g6 in witnesses:
            _recount(g6, t, dmax, omega, report.level(n).max_clique_count)
    return BeatResult(target, ties, beats, report)


def _recount(g6: str, t: int, dmax: int, omega: int, kt: int) -> None:
    """Check a witness by scanning vertex subsets, independently of the
    search's clique walker: degree <= dmax, no (omega+1)-clique, kt t-cliques."""
    g = graph6_decode(g6)

    def cliques(k: int) -> int:
        return sum(all(g.adj[u] >> v & 1 for u, v in combinations(s, 2))
                   for s in combinations(range(g.n), k))

    degree = max((row.bit_count() for row in g.adj), default=0)
    too_big, count = cliques(omega + 1), cliques(t)
    if degree > dmax or too_big or count != kt:
        raise RuntimeError(
            f"witness {g6} fails its recount: max degree {degree} (bound {dmax}),"
            f" {too_big} cliques of size {omega + 1}, {count} of size {t} (search: {kt})"
        )


def probe_configuration_average(r: int = 5, n_cap: int = 8) -> dict:
    """Open-question probe: in the degree-r clique-r class, does the
    average triangle weight over a configuration (an (r+1)-set inducing
    a complete graph minus two edges) stay at or below C(r,2) - 3 per
    vertex, split by whether the two missing edges share a vertex?

    The incident case is proven for r >= 5; the non-incident case only
    for r >= 6, so at r = 5 this records what exhaustion finds.
    """
    bound = (r + 1) * (comb(r, 2) - 3)
    best = {"incident": None, "non-incident": None}

    def check(g: Graph) -> None:
        if g.n < r + 1:
            return
        configs = find_configurations(g, r)
        if not configs:
            return
        weights = _per_vertex_size_counts(g.n, g.adj)
        for cfg in configs:
            total = sum(weights[v][3] for v in bits(cfg.vertices))
            key = "incident" if cfg.incident else "non-incident"
            if best[key] is None or total > best[key][0]:
                best[key] = (total, canonical_form(g))

    enumerate_all_up_to(n_cap, r, r, check)
    out = {"r": r, "n_cap": n_cap, "claimed_bound": bound}
    for key, val in best.items():
        out[key] = {
            "max_total_weight": val[0] if val else None,
            "witness": val[1] if val else None,
            "within_bound": (val[0] <= bound) if val else None,
        }
    return out
