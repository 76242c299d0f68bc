"""Canonical labeling by individualization and refinement.

The labeling tree follows the classic scheme: refine the vertex
coloring to the coarsest equitable partition, individualize one vertex
of the first non-singleton cell, repeat.  Leaves are discrete colorings
i.e. labelings; the canonical form is the lexicographic minimum of the
relabeled adjacency rows over all leaves.

Two labelings that produce the same adjacency string differ by an
automorphism, so every coincidence at a leaf yields a generator.  Cell
elements already known to be equivalent (under the discovered group
elements fixing the current individualization prefix pointwise) are
skipped, which collapses the factorial blow-up on highly symmetric
graphs such as edgeless or complete multipartite ones.

Refinement re-keys every vertex by its old color and its neighbor
count in each cell.  The key is packed into one int, in base n+1 with
the old color as the leading digit: every entry is at most n and all
keys of a round have the same length, so numeric order is the
lexicographic order of the (color, counts...) tuples, and sorting ints
replaces sorting tuples.

Everything here works on raw (n, adjacency-row tuple) pairs so the
enumeration engine can stay allocation-light; thin wrappers accept
Graph values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, graph6_encode


def refine_colors(n: int, adj: Sequence[int], colors: Optional[list[int]] = None) -> list[int]:
    """Coarsest equitable coloring refining ``colors`` (default: unit).

    Color ids are ranks 0..k-1 assigned in an isomorphism-invariant
    order: vertices are re-keyed each round by (old color, neighbor
    count per color class) and the sorted distinct keys become the new
    ids.  The synchronous update keeps the cell order canonical.

    From the unit coloring the first round ranks vertices by degree,
    ascending, and every later round keeps the old color as the
    primary key, so the last cell holds only maximum-degree vertices.
    The canonical-parent check in `cdt.search._accept` relies on this.
    """
    if n == 0:
        return []
    if colors is None:
        # round one from the unit coloring: ranked degrees
        colors = [a.bit_count() for a in adj]
    ids = sorted(set(colors))
    k = len(ids)
    if ids[0] == 0 and ids[-1] == k - 1:
        colors = list(colors)  # already ranks; never alias the input
    else:
        rank = {c: i for i, c in enumerate(ids)}
        colors = [rank[c] for c in colors]
    base = n + 1
    while k < n:
        masks = [0] * k
        for v in range(n):
            masks[colors[v]] |= 1 << v
        sigs = []
        for v in range(n):
            a = adj[v]
            key = colors[v]
            for m in masks:
                key = key * base + (a & m).bit_count()
            sigs.append(key)
        order = sorted(set(sigs))
        if len(order) == k:
            break  # stable: no cell split
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        k = len(order)
    return colors


def _permutation_between(lab_a: list[int], lab_b: list[int], n: int) -> tuple[int, ...]:
    """Vertex permutation sending lab_a's labeling onto lab_b's."""
    p = [0] * n
    for i in range(n):
        p[lab_a[i]] = lab_b[i]
    return tuple(p)


def _orbit_find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _orbit_partition(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    parent = list(range(n))
    for g in gens:
        for v in range(n):
            a, b = _orbit_find(parent, v), _orbit_find(parent, g[v])
            if a != b:
                parent[b] = a
    for v in range(n):
        _orbit_find(parent, v)
    return parent


def canon_raw(
    n: int, adj: Sequence[int], colors: Optional[list[int]] = None
) -> tuple[list[int], tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling of a raw graph.

    Returns (lab, form, gens): lab[i] is the vertex placed at position
    i, form the relabeled adjacency rows (the canonical form), and gens
    a generating set of the automorphism group.
    """
    if n == 0:
        return [], (), []
    gens: list[tuple[int, ...]] = []
    first_form: Optional[tuple[int, ...]] = None
    first_lab: list[int] = []
    best_form: Optional[tuple[int, ...]] = None
    best_lab: list[int] = []

    def add_gen(lab_a: list[int], lab_b: list[int]) -> None:
        p = _permutation_between(lab_a, lab_b, n)
        if any(p[v] != v for v in range(n)) and p not in gens:
            gens.append(p)

    def handle_leaf(colors: list[int]) -> None:
        nonlocal first_form, first_lab, best_form, best_lab
        lab = [0] * n
        for v in range(n):
            lab[colors[v]] = v
        form_rows = []
        for i in range(n):
            a = adj[lab[i]]
            row = 0
            while a:
                low = a & -a
                a ^= low
                row |= 1 << colors[low.bit_length() - 1]
            form_rows.append(row)
        form = tuple(form_rows)
        if first_form is None:
            first_form = best_form = form
            first_lab = best_lab = lab
            return
        if form == first_form and lab != first_lab:
            add_gen(first_lab, lab)
        if form == best_form and lab != best_lab and best_lab is not first_lab:
            add_gen(best_lab, lab)
        if form < best_form:
            best_form, best_lab = form, lab

    def rec(colors: Optional[list[int]], base: list[int]) -> None:
        colors = refine_colors(n, adj, colors)
        ncolors = max(colors) + 1
        if ncolors == n:
            handle_leaf(colors)
            return
        counts = [0] * ncolors
        for c in colors:
            counts[c] += 1
        target = next(i for i in range(ncolors) if counts[i] > 1)
        cell = [v for v in range(n) if colors[v] == target]
        branched: list[int] = []
        # ``base`` is restored after each child and ``gens`` only grows,
        # so the stabilizer's orbits change only when a generator is new
        ngens = -1
        parent: Optional[list[int]] = None
        for v in cell:
            if branched:
                if len(gens) != ngens:
                    ngens = len(gens)
                    stab = [g for g in gens if all(g[b] == b for b in base)]
                    parent = _orbit_partition(n, stab) if stab else None
                if parent is not None:
                    rv = _orbit_find(parent, v)
                    if any(_orbit_find(parent, u) == rv for u in branched):
                        continue
            branched.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            base.append(v)
            rec(child, base)
            base.pop()

    rec(colors, [])
    # rec holds itself through its closure cell; clearing the cell frees
    # the graph and the search state now, not at the next cyclic collection
    del rec
    assert best_form is not None
    return best_lab, best_form, gens


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: graph6 of the canonically relabeled graph.

    Equal byte strings iff the graphs are isomorphic.
    """
    _, form, _ = canon_raw(g.n, g.adj)
    return graph6_encode(Graph(g.n, form)).encode("ascii")


def canonical_graph(g: Graph) -> Graph:
    _, form, _ = canon_raw(g.n, g.adj)
    return Graph(g.n, form)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(r.bit_count() for r in g.adj) != sorted(r.bit_count() for r in h.adj):
        return False
    return canon_raw(g.n, g.adj)[1] == canon_raw(h.n, h.adj)[1]


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    return canon_raw(g.n, g.adj)[2]


def automorphism_orbits(g: Graph) -> list[int]:
    """Orbit id per vertex under the full automorphism group."""
    gens = canon_raw(g.n, g.adj)[2]
    parent = _orbit_partition(g.n, gens)
    reps = sorted(set(parent))
    rank = {r: i for i, r in enumerate(reps)}
    return [rank[parent[v]] for v in range(g.n)]
