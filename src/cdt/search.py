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

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from multiprocessing import get_context
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph, bits, union, empty_graph, complete_graph, path_graph
from .canon import canon_raw, canonical_form, refine_colors, _orbit_partition, _orbit_find
from .cliques import (
    _count_of_size,
    _has_clique,
    _max_clique,
    _per_vertex_size_counts,
    _size_counts,
    find_configurations,
    vertex_cover_count,
)
from .bounds import (
    bt_density,
    bt_graph,
    exact_value,
    lower_bound,
    turan_clique_count,
    turan_graph,
)

DEFAULT_CAP = 11
HARD_CAP = 16


class CapExceeded(RuntimeError):
    """Requested size is beyond the configured enumeration cap."""


def _effective_cap(cap: Optional[int]) -> int:
    if cap is None:
        return DEFAULT_CAP
    return min(cap, HARD_CAP)


def _check_cap(n: int, cap: Optional[int]) -> None:
    limit = _effective_cap(cap)
    if n > limit:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {limit}")


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


def _accept(n: int, adj: Sequence[int]) -> bool:
    """Canonical parent check: is the new vertex (index n-1) equivalent
    to the canonical deletion vertex?

    The deletion vertex is the one the canonical labeling puts last; it
    always lies in the last cell of the equitable refinement, which
    holds only maximum-degree vertices.  `_expand` offers only children
    whose new vertex has maximum degree, so a refinement pass rejects
    most candidates and settles singleton cells, and only then is a
    full canonical labeling computed.
    """
    w = n - 1
    colors = refine_colors(n, adj)
    last = max(colors)
    if colors[w] != last:
        return False
    if colors.count(last) == 1:
        return True
    lab, _, gens = canon_raw(n, adj, colors)
    z = lab[n - 1]
    if z == w:
        return True
    if not gens:
        return False
    parent = _orbit_partition(n, gens)
    return _orbit_find(parent, z) == _orbit_find(parent, w)


def _expand(n_p: int, adj_p: Sequence[int], dmax: int, omega: int) -> Iterator[tuple[int, ...]]:
    """Accepted children of a parent: one new vertex joined to an
    orbit-representative subset that keeps the class constraints.

    The degree test of the canonical-parent rule is decided here, on
    the subset, before orbit reduction: the new vertex must end with
    the maximum degree.  With D the parent's maximum degree and M its
    maximum-degree vertices, a subset S passes exactly when
    D <= |S| <= dmax, S avoids the saturated vertices, and S avoids M
    when |S| = D.  These conditions are invariant under the parent's
    automorphisms, so reducing only the passing subsets, taken in
    increasing order, yields the same representatives in the same
    order as reducing all subsets and filtering after.
    """
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
        if mask.bit_count() >= omega and _has_clique(adj_p, mask, omega):
            continue
        adj_c = tuple(
            adj_p[v] | bit if mask & (1 << v) else adj_p[v] for v in range(n_p)
        ) + (mask,)
        if _accept(n_p + 1, adj_c):
            yield adj_c


# -- the depth-first walker ------------------------------------------------

def _walk(
    n: int,
    adj: tuple[int, ...],
    n_max: int,
    dmax: int,
    omega: int,
    visit: Callable[[int, tuple[int, ...]], bool],
) -> None:
    """Visit ``adj`` and, when ``visit`` returns True, every class in its
    subtree up to ``n_max`` vertices."""
    if not visit(n, adj) or n >= n_max:
        return
    for adj_c in _expand(n, adj, dmax, omega):
        _walk(n + 1, adj_c, n_max, dmax, omega, visit)


class _Agg:
    """Stats visitor for `_walk`: per-level counts, best t-clique count and
    all maximizers.  Split-level nodes go on ``frontier`` for pool tasks.
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
        self.frontier: list[tuple[int, ...]] = []

    def visit(self, n: int, adj: tuple[int, ...]) -> bool:
        if n == self.split:
            self.frontier.append(adj)
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
    adj_root, n_root, n_max, dmax, omega, t, bound = args
    agg = _Agg(t, bound)
    _walk(n_root, adj_root, n_max, dmax, omega, agg.visit)
    return agg.levels


# The split-level tasks are far from even: of the 10 level-4 tasks of
# best_up_to(8, 5, 3, 3), one takes about 60% of the serial time (about
# 80% at n_max = 9), so no worker count can make the pool more than
# about 1.7x (1.25x) faster than one worker.
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
    if n_max < 1:
        return {}
    bound = None
    if prune_target is not None:
        ceil_pv = turan_clique_count(dmax, max(omega - 1, 1), t - 1)
        bound = (prune_target.numerator, prune_target.denominator, ceil_pv, n_max)
    split = _SPLIT_LEVEL if thread_count > 1 and n_max > _SPLIT_LEVEL else -1
    agg = _Agg(t, bound, split)
    _walk(1, (0,), n_max, dmax, omega, agg.visit)
    if split < 0:
        return agg.levels
    tasks = [(adj, split, n_max, dmax, omega, t, bound) for adj in agg.frontier]
    ctx = get_context("fork")
    with ctx.Pool(processes=thread_count) as pool:
        for part in pool.imap(_subtree_worker, tasks, chunksize=1):
            for n, lv in part.items():
                agg.add(n, *lv)
    return agg.levels


# -- reports ---------------------------------------------------------------

@dataclass(frozen=True)
class SearchSpec:
    n_max: int
    dmax: int
    omega: int
    t: int
    thread_count: int = 1
    prune_target: Optional[Fraction] = None


@dataclass(frozen=True)
class LevelResult:
    n: int
    graphs_enumerated: int
    max_clique_count: int
    max_density: Fraction
    witnesses: tuple[str, ...]  # canonical graph6, byte order


@dataclass
class SearchReport:
    spec: SearchSpec
    levels: list[LevelResult]
    best_density: Fraction
    best_n: int
    meets_lower_bound: Optional[bool]
    exact_known: Optional[Fraction]
    meets_exact: Optional[bool]
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
        g6 = sorted(canonical_form(Graph(n, adj)).decode("ascii") for adj in wits)
        out.append(LevelResult(n, cnt, best, Fraction(best, n), tuple(g6)))
    return out


def best_up_to(
    n_max: int,
    dmax: int,
    omega: int,
    t: int,
    thread_count: int = 1,
    prune_target: Optional[Fraction] = None,
    cap: Optional[int] = None,
) -> SearchReport:
    """Per-size maxima of the t-clique density over the class, with all
    extremal witnesses up to isomorphism."""
    if n_max < 1:
        raise ValueError("need at least one vertex")
    if t < 2:
        raise ValueError("clique size must be at least 2")
    if dmax < 0:
        raise ValueError("degree bound must be non-negative")
    if omega < 1:
        raise ValueError("clique bound must be at least 1")
    if thread_count < 1:
        raise ValueError("need at least one worker thread")
    _check_cap(n_max, cap)
    t0 = time.perf_counter()
    levels = _search_levels(n_max, dmax, omega, t, thread_count, prune_target)
    out = _finalize_levels(levels)
    best = max(lv.max_density for lv in out)
    best_n = min(lv.n for lv in out if lv.max_density == best)
    meets_lower = None
    exact_known = None
    meets_exact = None
    if omega >= 2 and dmax >= 1:
        meets_lower = best == lower_bound(t, dmax, omega)
        ev = exact_value(t, dmax, omega)
        if ev is not None:
            exact_known = ev.value
            meets_exact = best == ev.value
    return SearchReport(
        spec=SearchSpec(n_max, dmax, omega, t, thread_count, prune_target),
        levels=out,
        best_density=best,
        best_n=best_n,
        meets_lower_bound=meets_lower,
        exact_known=exact_known,
        meets_exact=meets_exact,
        pruned=prune_target is not None,
        wall_time=time.perf_counter() - t0,
    )


def max_density(
    n: int,
    dmax: int,
    omega: int,
    t: int,
    thread_count: int = 1,
    cap: Optional[int] = None,
) -> tuple[Fraction, list[str]]:
    """Exact maximum t-density among n-vertex class members, plus every
    maximizer as canonical graph6."""
    report = best_up_to(n, dmax, omega, t, thread_count=thread_count, cap=cap)
    lv = report.level(n)
    return lv.max_density, list(lv.witnesses)


def enumerate_class(
    n: int,
    dmax: int,
    omega: int,
    visitor: Optional[Callable[[Graph], None]] = None,
    cap: Optional[int] = None,
) -> int:
    """Visit one representative per isomorphism class of n-vertex graphs
    in the class; returns the number visited."""
    _check_cap(n, cap)
    if n == 0:
        if visitor is not None:
            visitor(empty_graph(0))
        return 1
    count = 0

    def visit(level: int, adj: tuple[int, ...]) -> bool:
        nonlocal count
        if level == n:
            count += 1
            if visitor is not None:
                visitor(Graph._trusted(level, adj))
        return True

    _walk(1, (0,), n, dmax, omega, visit)
    return count


def enumerate_all_up_to(
    n_max: int,
    dmax: int,
    omega: int,
    visitor: Callable[[Graph], None],
    cap: Optional[int] = None,
) -> int:
    """Visit one representative per isomorphism class of every size
    1..n_max; returns the number visited."""
    _check_cap(n_max, cap)
    count = 0

    def visit(level: int, adj: tuple[int, ...]) -> bool:
        nonlocal count
        count += 1
        visitor(Graph._trusted(level, adj))
        return True

    if n_max >= 1:
        _walk(1, (0,), n_max, dmax, omega, visit)
    return count


# -- brute-force theorem verification ---------------------------------------

def _turan_maximizes(n: int, omega: int, t: int, best: int, wits: list) -> bool:
    """Is ``best`` the t-clique count of T(n, omega), attained by the
    Turan graph alone whenever it is nonzero?"""
    expected = turan_clique_count(n, omega, t)
    if best != expected or expected == 0:
        return best == expected
    forms = sorted(canonical_form(Graph(n, adj)) for adj in wits)
    return forms == [canonical_form(turan_graph(n, omega))]


def verify_zykov(
    n: int,
    omega: int,
    t: int,
    failures: Optional[list[str]] = None,
) -> bool:
    """Among n-vertex graphs with clique number <= omega, the Turan
    graph maximizes the t-clique count, uniquely whenever it has any
    t-cliques at all."""
    if n < 1 or omega < 1 or t < 2:
        raise ValueError("need n >= 1, omega >= 1, t >= 2")
    _check_cap(n, None)
    cnt, best, wits = _search_levels(n, n, omega, t)[n]
    ok = _turan_maximizes(n, omega, t, best, wits)
    if not ok and failures is not None:
        failures.extend(
            canonical_form(Graph(n, adj)).decode("ascii") for adj in wits
        )
    return ok


def verify_superadditivity(
    dmax: int,
    omega: int,
    t: int,
    n_max: int,
    failures: Optional[list[str]] = None,
) -> bool:
    """max k_t at x+y vertices is at least the sum of the maxima at x
    and y vertices (disjoint unions stay in the class)."""
    _check_cap(n_max, None)
    levels = _search_levels(n_max, dmax, omega, t)
    best = {n: levels[n][1] for n in levels}
    ok = True
    for x in range(1, n_max):
        for y in range(x, n_max - x + 1):
            if best[x + y] < best[x] + best[y]:
                ok = False
                if failures is not None:
                    failures.append(f"x={x} y={y}: {best[x+y]} < {best[x]} + {best[y]}")
    return ok


# -- neighborhood classification lemmas --------------------------------------

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
    """
    checks: list[LemmaCheck] = []
    for r in r_values:
        if r < 3:
            raise ValueError("classification needs r >= 3")
        by_size: dict[int, list[Graph]] = {m: [] for m in range(1, r + 3)}
        enumerate_all_up_to(r + 2, r + 1, r + 2, lambda g: by_size[g.n].append(g))

        # three r-cliques force K_{r+2} minus triangle or minus 4-path
        found = []
        for m in range(1, r + 3):
            for g in by_size[m]:
                counts = _size_counts(g.adj, g.vertex_mask())
                kr = counts[r] if r < len(counts) else 0
                if kr == 3 and _max_clique(g.adj, g.vertex_mask()) <= r:
                    found.append(canonical_form(g).decode("ascii"))
        expected = sorted(
            canonical_form(h).decode("ascii")
            for h in (_complete_minus(r + 2, _TRIANGLE), _complete_minus(r + 2, _PATH4))
        )
        checks.append(LemmaCheck("three-max-cliques", r, sorted(found) == expected, sorted(found), expected))

        # complement version: cover counts (3 of size 2, none smaller)
        found = []
        for m in range(1, r + 3):
            for g in by_size[m]:
                if (
                    vertex_cover_count(g, 0) == 0
                    and (g.n < 1 or vertex_cover_count(g, 1) == 0)
                    and g.n >= 2
                    and vertex_cover_count(g, 2) == 3
                ):
                    found.append(canonical_form(g).decode("ascii"))
        expected = set()
        for m in range(3, r + 3):
            expected.add(canonical_form(union(complete_graph(3), empty_graph(m - 3))).decode("ascii"))
            if m >= 4:
                expected.add(canonical_form(union(path_graph(4), empty_graph(m - 4))).decode("ascii"))
        checks.append(
            LemmaCheck("three-covers-of-size-two", r, set(found) == expected and len(found) == len(set(found)), sorted(found), sorted(expected))
        )

        if r >= 5:
            window_lo = Fraction(4 * r - 16) + Fraction(36, r + 2)
            window_hi = 4 * r - 8

            # size-3 cover window on r+1 vertices
            found = []
            for g in by_size[r + 1]:
                if vertex_cover_count(g, 1) == 0 and window_lo <= vertex_cover_count(g, 3) < window_hi:
                    found.append(canonical_form(g).decode("ascii"))
            expected = sorted(
                canonical_form(h).decode("ascii")
                for h in (
                    union(complete_graph(3), empty_graph(r - 2)),
                    union(path_graph(4), empty_graph(r - 3)),
                )
            )
            checks.append(LemmaCheck("cover-window", r, sorted(found) == expected, sorted(found), expected))

            # k_{r-2} window on <= r+1 vertices pins two graphs
            found = []
            for m in range(1, r + 2):
                for g in by_size[m]:
                    counts = _size_counts(g.adj, g.vertex_mask())
                    kr2 = counts[r - 2] if r - 2 < len(counts) else 0
                    if (
                        _max_clique(g.adj, g.vertex_mask()) <= r - 1
                        and window_lo <= kr2 < window_hi
                    ):
                        found.append(canonical_form(g).decode("ascii"))
            expected = sorted(
                canonical_form(h).decode("ascii")
                for h in (_complete_minus(r + 1, _TRIANGLE), _complete_minus(r + 1, _PATH4))
            )
            checks.append(LemmaCheck("near-max-weight-window", r, sorted(found) == expected, sorted(found), expected))
    return LemmaReport(checks)


# -- conjecture probes ---------------------------------------------------------

def probe_conjecture(
    name: str,
    n_cap: int,
    thread_count: int = 1,
    cap: Optional[int] = None,
) -> dict:
    """Search-based probe of an open question.

    "bt3": does anything in the degree-7 triangle-allowed class beat
    the triangle density (k+1)(k^2+1)/(3k+2) of bt_graph(3)?  Pruned by
    the sound per-vertex ceiling, which keeps every graph that ties or
    beats the target.

    "attainment(t,dmax,omega)": per-size maxima for a triple, recording
    whether the running best has stabilized at the best known value.
    """
    name = name.strip()
    if name == "bt3":
        target = bt_density(3)
        report = best_up_to(
            n_cap, 7, 3, 3, thread_count=thread_count, prune_target=target, cap=cap
        )
        beaten = [lv.n for lv in report.levels if lv.max_density > target]
        ties = {lv.n: list(lv.witnesses) for lv in report.levels if lv.max_density == target}
        bt3_g6 = canonical_form(bt_graph(3)).decode("ascii")
        unique_at_11 = None
        if n_cap >= 11 and 11 in ties:
            unique_at_11 = ties[11] == [bt3_g6]
        return {
            "probe": "bt3",
            "n_cap": n_cap,
            "target": target,
            "beaten_at": beaten,
            "ties_at": ties,
            "bt3_graph6": bt3_g6,
            "unique_best_at_11": unique_at_11,
            "pruned": True,
            "note": "per-size maxima below the target are not exhaustive under pruning",
            "wall_time": report.wall_time,
        }
    if name.startswith("attainment"):
        args = name[len("attainment"):].strip("():").replace(",", ":").split(":")
        t, dmax, omega = (int(x) for x in args if x != "")
        report = best_up_to(n_cap, dmax, omega, t, thread_count=thread_count, cap=cap)
        return {
            "probe": f"attainment({t},{dmax},{omega})",
            "n_cap": n_cap,
            "per_n": {lv.n: lv.max_density for lv in report.levels},
            "best": report.best_density,
            "best_n": report.best_n,
            "exact_known": report.exact_known,
            "meets_exact": report.meets_exact,
            "pruned": False,
            "wall_time": report.wall_time,
        }
    raise ValueError(f"unknown probe {name!r}")


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
                best[key] = (total, canonical_form(g).decode("ascii"))

    enumerate_all_up_to(n_cap, r, r, check)
    out = {"r": r, "n_cap": n_cap, "claimed_bound": bound}
    for key, val in best.items():
        out[key] = {
            "max_total_weight": val[0] if val else None,
            "witness": val[1] if val else None,
            "within_bound": (val[0] <= bound) if val else None,
        }
    return out
