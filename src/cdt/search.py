"""Isomorph-free exhaustive search over bounded-degree bounded-clique
graph classes.

Generation is by canonical augmentation: graphs grow one vertex per
level, a child is kept only when its new vertex sits in the same
automorphism orbit as the canonical deletion vertex, and the subsets a
parent is extended by are deduplicated up to the parent's automorphism
group.  Every isomorphism class is therefore produced exactly once,
with no global seen-set, so subtrees are independent and can run in
separate worker processes; the merge is order-insensitive (sum counts,
max densities, concatenate witness lists).

Class constraints prune as early as an edge would create them: a new
vertex may not be joined to a saturated vertex, to more than the degree
bound, or to a subset containing a clique at the bound.  Both
constraints are hereditary under vertex deletion, so pruning never
orphans a class.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph
from .canon import canon_raw, canonical_form, refine_colors, _leaf_form, _orbit_partition
from .cliques import _count_of_size, _has_clique
from .bounds import turan_clique_count

HARD_CAP = 16  # the engine's range; a front end may set a lower cap


class CapExceeded(RuntimeError):
    """Requested size is beyond the enumeration cap."""


def _check_cap(n: int, cap: Optional[int] = None) -> None:
    limit = HARD_CAP if cap is None else min(cap, HARD_CAP)
    if n > limit:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {limit}")


def _check_class(dmax: int, omega: int) -> None:
    if dmax < 0:
        raise ValueError("degree bound must be non-negative")
    if omega < 1:
        raise ValueError("clique bound must be at least 1")


# -- one augmentation step ----------------------------------------------

def _subset_reps(n: int, gens: list[tuple[int, ...]], masks: list[int]) -> Iterator[int]:
    """Orbit-minimal representatives of the subsets in ``masks``, an
    increasing list closed under the group generated by ``gens``."""
    if not gens:
        yield from masks
        return
    seen = bytearray(1 << n)
    for m in masks:
        if seen[m]:
            continue
        orbit = [m]
        seen[m] = 1
        head = 0
        while head < len(orbit):
            cur = orbit[head]
            head += 1
            for g in gens:
                img = 0
                x = cur
                while x:
                    low = x & -x
                    x ^= low
                    img |= 1 << g[low.bit_length() - 1]
                if not seen[img]:
                    seen[img] = 1
                    orbit.append(img)
        yield m


def _accept(n: int, adj: Sequence[int], leaf: bool = False) -> bool | tuple[Optional[list]]:
    """Canonical parent check: is the new vertex w (index n-1)
    equivalent to the canonical deletion vertex?

    Returns False when it is not.  Otherwise returns a 1-tuple: the
    generators of the child's automorphism group when the check
    computed them, else None.

    The deletion vertex is the one the canonical labeling puts last; it
    always lies in the last cell of the equitable refinement from the
    unit coloring.  `_expand` offers only children in which w has the
    maximum degree and shares it with another vertex.  The stages
    below run cheapest first, and each decides exactly as the full
    refinement followed by `canon_raw` would.

    1. Top cell.  The refinement's second round keys each vertex of
       maximum degree by its neighbor counts in the lower degree
       classes, in ascending degree order (the old color is the
       leading digit and those classes are the fresh cells), and the
       largest key becomes the last cell.  Later rounds only split
       cells and keep their order.  So when another maximum-degree
       vertex has a larger vector than w, w is not in the last cell
       (reject), and when w's vector is strictly the largest, w is
       alone in it (accept).  A tie goes on.
    2. Refinement.  When w is not in the last cell of the full
       refinement, reject; when it is alone there, accept.
    3. Leaf certificate, only when ``leaf`` is set: the child is on the
       last level and is never expanded, so its group is not needed.
       From the full refinement, individualize each vertex of the last
       cell in turn and descend to a leaf, always individualizing the
       first vertex of the first non-singleton cell.  The root coloring
       is invariant under the automorphisms and so is the choice of
       cell, and a leaf's labeling determines its path (an
       individualized vertex takes the first position of its cell).
       So when the leaves below w and below x have the same form, the
       permutation between them is an automorphism mapping w to x.  If
       every leaf has the same form, the last cell is one orbit and
       holds the deletion vertex: accept.  At the first other form, go
       on.
    4. `canon_raw`, with the full refinement as its root unrefined.

    The generators of stage 4 are exactly ``canon_raw(n, adj)[2]``, in
    the same order: from the unit coloring, `canon_raw` first refines
    to the same equitable coloring, so it walks the same tree.
    `_expand` of the child reuses them instead of labeling the child
    again.
    """
    w = n - 1
    by_degree: dict[int, int] = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    rivals = cells.pop() & ~(1 << w)
    base = n + 1
    key_w = 0
    for m in cells:
        key_w = key_w * base + (adj[w] & m).bit_count()
    tie = False
    while rivals:
        low = rivals & -rivals
        rivals ^= low
        a = adj[low.bit_length() - 1]
        key = 0
        for m in cells:
            key = key * base + (a & m).bit_count()
        if key > key_w:
            return False
        tie = tie or key == key_w
    if not tie:
        return (None,)
    colors = refine_colors(n, adj)
    last = max(colors)
    if colors[w] != last:
        return False
    cell = [v for v in range(n) if colors[v] == last]
    if len(cell) == 1:
        return (None,)
    if leaf:
        forms = set()
        for v in cell:
            leaf_colors = refine_colors(n, adj, colors, split=v)
            while (k := max(leaf_colors) + 1) < n:
                counts = [0] * k
                for c in leaf_colors:
                    counts[c] += 1
                target = next(c for c in range(k) if counts[c] > 1)
                leaf_colors = refine_colors(n, adj, leaf_colors, split=leaf_colors.index(target))
            forms.add(_leaf_form(n, adj, leaf_colors))
            if len(forms) > 1:
                break
        else:
            return (None,)
    lab, _, gens = canon_raw(n, adj, colors)
    z = lab[n - 1]
    if z != w:
        parent = _orbit_partition(n, gens)
        if parent[z] != parent[w]:
            return False
    return (gens,)


def _expand(
    n_p: int,
    adj_p: Sequence[int],
    dmax: int,
    omega: int,
    gens: Optional[list] = None,
    leaf: bool = False,
) -> Iterator[tuple[tuple[int, ...], Optional[list]]]:
    """Accepted children of a parent, each with its group generators
    from `_accept` (None when no stage computed them): one new vertex
    joined to an orbit-representative subset that keeps the class
    constraints.  ``leaf`` tells `_accept` that the children are on
    the last level.

    ``gens`` generates the parent's automorphism group when its own
    `_accept` computed them; they equal ``canon_raw(n_p, adj_p)[2]``
    (see `_accept`), so the subset representatives and their order
    are the same as when the parent is labeled here.

    The degree test of the canonical-parent rule is decided here, on
    the subset, before orbit reduction: the new vertex must end with
    the maximum degree.  With D the parent's maximum degree and M its
    maximum-degree vertices, a subset S passes exactly when
    D <= |S| <= dmax, S avoids the saturated vertices, and S avoids M
    when |S| = D.  These conditions are invariant under the parent's
    automorphisms, so reducing only the passing subsets, taken in
    increasing order, yields the same representatives in the same
    order as reducing all subsets and filtering after.

    The new vertex is the unique maximum-degree vertex of the child
    exactly when |S| >= D + 2, or |S| = D + 1 and S avoids M: every
    other vertex ends with degree at most D + 1, and only a vertex of
    M reaches D + 1.  It is then alone in the last cell of the
    refinement's degree round, so such a child is accepted here,
    without `_accept` and without a group.
    """
    if gens is None:
        gens = canon_raw(n_p, adj_p)[2]
    degs = [a.bit_count() for a in adj_p]
    top = max(degs)
    free = 0
    top_mask = 0
    for v in range(n_p):
        if degs[v] < dmax:
            free |= 1 << v
        if degs[v] == top:
            top_mask |= 1 << v
    masks = []
    mask = 0
    while True:  # the subsets of ``free`` in increasing order
        pc = mask.bit_count()
        if top <= pc <= dmax and (pc > top or not mask & top_mask):
            masks.append(mask)
        if mask == free:
            break
        mask = (mask - free) & free
    bit = 1 << n_p
    for mask in _subset_reps(n_p, gens, masks):
        size = mask.bit_count()
        if size >= omega and _has_clique(adj_p, mask, omega):
            continue
        adj_c = tuple(
            adj_p[v] | bit if mask & (1 << v) else adj_p[v] for v in range(n_p)
        ) + (mask,)
        if size > top + 1 or (size > top and not mask & top_mask):
            yield adj_c, None
            continue
        accepted = _accept(n_p + 1, adj_c, leaf)
        if accepted:
            yield adj_c, accepted[0]


# -- the depth-first walker ------------------------------------------------

def _walk(
    n: int,
    adj: tuple[int, ...],
    n_max: int,
    dmax: int,
    omega: int,
    visit: Callable[[int, tuple[int, ...], Optional[list]], bool],
    gens: Optional[list] = None,
) -> None:
    """Visit ``adj`` and, when ``visit`` returns True, every class in its
    subtree up to ``n_max`` vertices.  ``gens``, when known, generates
    the automorphism group of ``adj`` and is passed on to ``visit`` and
    `_expand`.  Children with ``n_max`` vertices are never expanded, so
    `_expand` is told when it builds them: their canonical-parent test
    may then accept without finding their group (see `_accept`)."""
    if not visit(n, adj, gens) or n >= n_max:
        return
    for adj_c, gens_c in _expand(n, adj, dmax, omega, gens, n + 1 >= n_max):
        _walk(n + 1, adj_c, n_max, dmax, omega, visit, gens_c)


class _Agg:
    """Stats visitor for `_walk`: per-level counts, best t-clique count and
    all maximizers.  Split-level nodes go on ``frontier`` for pool tasks,
    with their group generators, so that a task labels its root exactly
    when a serial walk would.
    ``bound`` = (num, den, ceil_per_vertex, n_target) cuts a subtree that
    cannot reach density num/den: each added vertex carries at most
    ceil_per_vertex t-cliques, and density is largest at the largest size."""

    __slots__ = ("t", "bound", "split", "levels", "frontier")

    def __init__(self, t: int, bound: Optional[tuple] = None, split: int = -1):
        self.t = t
        self.bound = bound
        self.split = split
        # n -> [count, best_kt, witness adjacency tuples]
        self.levels: dict[int, list] = {}
        self.frontier: list[tuple[tuple[int, ...], Optional[list]]] = []

    def visit(self, n: int, adj: tuple[int, ...], gens: Optional[list]) -> bool:
        if n == self.split:
            self.frontier.append((adj, gens))
            return False
        kt = _count_of_size(adj, (1 << n) - 1, self.t)
        self.add(n, 1, kt, (adj,))
        if self.bound is None:
            return True
        num, den, ceil_pv, n_target = self.bound
        return (kt + ceil_pv * (n_target - n)) * den >= num * n_target

    def add(self, n: int, cnt: int, best: int, wits) -> None:
        lv = self.levels.get(n)
        if lv is None:
            self.levels[n] = [cnt, best, list(wits)]
        else:
            lv[0] += cnt
            if best > lv[1]:
                lv[1] = best
                lv[2] = list(wits)
            elif best == lv[1]:
                lv[2].extend(wits)


def _subtree_worker(args) -> dict[int, list]:
    adj_root, gens_root, n_root, n_max, dmax, omega, t, bound = args
    agg = _Agg(t, bound)
    _walk(n_root, adj_root, n_max, dmax, omega, agg.visit, gens_root)
    return agg.levels


# The split-level tasks are far from even: of the 10 level-4 tasks of
# best_up_to(8, 5, 3, 3), one takes 50-55% of the serial time (74-77%
# at n_max = 9; each task timed alone, best of 3, 2-CPU host, Python
# 3.11), so no worker count can make the pool more than about 1.8x
# (1.3x) faster than one worker.
_SPLIT_LEVEL = 4


def _search_levels(
    n_max: int,
    dmax: int,
    omega: int,
    t: int,
    thread_count: int = 1,
    prune_target: Optional[Fraction] = None,
) -> dict[int, list]:
    """Stats for every level 1..n_max; deterministic for any worker count."""
    bound = None
    if prune_target is not None:
        ceil_pv = turan_clique_count(dmax, max(omega - 1, 1), t - 1)
        bound = (prune_target.numerator, prune_target.denominator, ceil_pv, n_max)
    split = _SPLIT_LEVEL if thread_count > 1 and n_max > _SPLIT_LEVEL else -1
    agg = _Agg(t, bound, split)
    _walk(1, (0,), n_max, dmax, omega, agg.visit)
    if not agg.frontier:
        return agg.levels
    tasks = [(adj, gens, split, n_max, dmax, omega, t, bound) for adj, gens in agg.frontier]
    ctx = get_context("fork")
    # workers ignore Ctrl-C: the parent alone reports it, and leaving the
    # `with` block terminates them
    with ctx.Pool(processes=min(thread_count, len(tasks)), initializer=signal.signal,
                  initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        try:
            for part in pool.imap(_subtree_worker, tasks, chunksize=1):
                for n, lv in part.items():
                    agg.add(n, *lv)
        except Exception as exc:
            # a worker's ValueError is not a bad parameter of the caller
            raise RuntimeError(f"search worker failed: {type(exc).__name__}: {exc}") from exc
    return agg.levels


# -- reports ---------------------------------------------------------------

@dataclass(frozen=True)
class LevelResult:
    n: int
    graphs_enumerated: int
    max_clique_count: int
    max_density: Fraction
    witnesses: tuple[str, ...]  # canonical graph6, byte order


@dataclass
class SearchReport:
    levels: list[LevelResult]
    best_density: Fraction
    best_n: int
    pruned: bool
    wall_time: float

    def level(self, n: int) -> LevelResult:
        for lv in self.levels:
            if lv.n == n:
                return lv
        raise KeyError(n)


def _finalize_levels(levels: dict[int, list]) -> list[LevelResult]:
    out = []
    for n in sorted(levels):
        cnt, best, wits = levels[n]
        g6 = sorted(canonical_form(Graph(n, adj)) for adj in wits)
        out.append(LevelResult(n, cnt, best, Fraction(best, n), tuple(g6)))
    return out


def best_up_to(
    n_max: int,
    dmax: int,
    omega: int,
    t: int,
    thread_count: int = 1,
    prune_target: Optional[Fraction] = None,
) -> SearchReport:
    """Per-size maxima of the t-clique density over the class, with all
    extremal witnesses up to isomorphism."""
    if n_max < 1:
        raise ValueError("need at least one vertex")
    if t < 2:
        raise ValueError("clique size must be at least 2")
    _check_class(dmax, omega)
    if thread_count < 1:
        raise ValueError("need at least one worker thread")
    _check_cap(n_max)
    t0 = time.perf_counter()
    levels = _search_levels(n_max, dmax, omega, t, thread_count, prune_target)
    out = _finalize_levels(levels)
    best = max(lv.max_density for lv in out)
    best_n = min(lv.n for lv in out if lv.max_density == best)
    return SearchReport(
        levels=out,
        best_density=best,
        best_n=best_n,
        pruned=prune_target is not None,
        wall_time=time.perf_counter() - t0,
    )


def enumerate_all_up_to(
    n_max: int,
    dmax: int,
    omega: int,
    visitor: Callable[[Graph], None],
    cap: Optional[int] = None,
) -> int:
    """Visit one representative per isomorphism class of every size
    1..n_max; returns the number visited.  ``cap`` may only lower the
    limit below `HARD_CAP`; ``perfbench/tests`` passes it positionally."""
    _check_class(dmax, omega)
    _check_cap(n_max, cap)
    count = 0

    def visit(level: int, adj: tuple[int, ...], gens) -> bool:
        nonlocal count
        count += 1
        visitor(Graph._trusted(level, adj))
        return True

    if n_max >= 1:
        _walk(1, (0,), n_max, dmax, omega, visit)
    return count
