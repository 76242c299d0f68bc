"""Brute-force oracles shared across the test modules.

These deliberately avoid the library's clever paths: canonical forms by
trying every permutation, clique counts by scanning every subset, class
catalogs by filtering every labeled graph.  Slow but independent.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from types import SimpleNamespace

from cdt import Graph, build_graph, relabel


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def brute_canonical(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency-row tuple over all vertex permutations."""
    best = None
    for perm in permutations(range(g.n)):
        key = tuple(relabel(g, perm).adj)
        if best is None or key < best:
            best = key
    return best


def brute_classes(n: int, predicate=None) -> set[tuple[int, ...]]:
    """Isomorphism classes of n-vertex graphs passing the predicate,
    keyed by permutation-brute-force canonical form."""
    out = set()
    for g in all_labeled_graphs(n):
        if predicate is None or predicate(g):
            out.add(brute_canonical(g))
    return out


def brute_clique_count(g: Graph, t: int) -> int:
    """Count t-cliques by scanning all t-subsets."""
    if t == 0:
        return 1
    count = 0
    for combo in combinations(range(g.n), t):
        if all(g.adj[u] & (1 << v) for u, v in combinations(combo, 2)):
            count += 1
    return count


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def inline_pool_context(started: list) -> SimpleNamespace:
    """Stand-in for ``multiprocessing.get_context(...)``: its pools run
    every task in this process, in order, and start no process.  The
    keyword arguments of each pool are appended to ``started``."""

    class Pool:
        def __init__(self, **kwargs):
            started.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    return SimpleNamespace(Pool=Pool)
